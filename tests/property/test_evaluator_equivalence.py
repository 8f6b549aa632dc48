"""Property: the compiled evaluator agrees with brute force on random queries.

Three independent answers are compared on randomly generated queries and
instances (generators shared via :mod:`strategies`), including self-joins
(the same predicate twice) and view-backed ``extra_relations``:

* the compiled evaluator probing hash indexes,
* the compiled evaluator restricted to scans (``use_indexes=False``),
* a brute-force reference that enumerates the full cartesian product of the
  body atoms' relations and filters by the term constraints — no join
  ordering, no slots, no indexes, just the textbook semantics.

The inputs cover acyclic and cyclic bodies, parameterized queries, per-row
binding sets (each binding must also map every body atom onto a stored
row), and inserts and deletes between evaluations of one held program (as a
citation plan holds it), against database relations and the view-like extra
relation alike; after drift the held program must also equal a fresh
evaluation.
"""

from hypothesis import given, settings, strategies as st

from strategies import (
    HeldQuery,
    acyclic_queries,
    apply_drift,
    brute_force,
    cyclic_queries,
    drift_sequences,
    parameterized_queries,
    random_instances,
    random_queries,
    rows,
    self_join_queries,
)

from repro.query.ast import Constant
from repro.query.evaluator import QueryEvaluator


def _answers(database, extra, query, use_indexes=True):
    evaluator = QueryEvaluator(database, extra_relations=extra, use_indexes=use_indexes)
    return evaluator.evaluate(query).rows


class TestEvaluatorEquivalence:
    @given(random_queries(), random_instances())
    @settings(max_examples=80, deadline=None)
    def test_indexed_scan_and_brute_force_agree(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        assert _answers(database, extra, query) == reference
        assert _answers(database, extra, query, use_indexes=False) == reference

    @given(acyclic_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_acyclic_queries_agree(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        assert _answers(database, extra, query) == reference
        assert _answers(database, extra, query, use_indexes=False) == reference

    @given(cyclic_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_queries_agree(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        assert _answers(database, extra, query) == reference
        assert _answers(database, extra, query, use_indexes=False) == reference

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_binding_sets_agree_between_indexed_and_scan(self, query, instance):
        database, extra = instance
        indexed = QueryEvaluator(database, extra_relations=extra, use_indexes=True)
        scanning = QueryEvaluator(database, extra_relations=extra, use_indexes=False)
        left = indexed.evaluate_with_bindings(query)
        right = scanning.evaluate_with_bindings(query)
        assert set(left) == set(right) == brute_force(query, database, extra)
        for row in left:
            as_sets = lambda bindings: {
                frozenset(b.items()) for b in bindings
            }
            assert as_sets(left[row]) == as_sets(right[row])

    @given(parameterized_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_parameterized_evaluation_agrees(self, query_and_values, instance):
        query, valuation = query_and_values
        database, extra = instance
        substituted = query.substitute(
            {param: Constant(valuation[param.name]) for param in query.parameters}
        )
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate_parameterized(query, valuation).rows == brute_force(
            substituted, database, extra
        )

    @given(
        random_queries(),
        random_instances(),
        rows(max_size=4),
        rows(max_size=4),
        st.sampled_from(["R", "S"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_held_program_stays_exact_after_database_drift(
        self, query, instance, inserts, deletes, relation
    ):
        database, extra = instance
        held = HeldQuery(QueryEvaluator(database, extra_relations=extra), query)
        assert held.rows() == brute_force(query, database, extra)
        database.insert_many(relation, inserts)
        for row in deletes:
            database.delete(relation, row)
        assert held.rows() == brute_force(query, database, extra)

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_held_and_fresh_programs_agree_in_both_access_modes(self, query, instance):
        # A program compiled once and passed back in (as a citation plan
        # holds it) answers like a fresh compile, probing or scanning.
        database, extra = instance
        reference = brute_force(query, database, extra)
        for use_indexes in (True, False):
            evaluator = QueryEvaluator(database, extra_relations=extra, use_indexes=use_indexes)
            assert HeldQuery(evaluator, query).rows() == reference
            assert evaluator.evaluate(query).rows == reference

    @given(random_queries(), random_instances())
    @settings(max_examples=60, deadline=None)
    def test_binding_sets_satisfy_the_body_and_match_the_held_program(self, query, instance):
        database, extra = instance
        evaluator = QueryEvaluator(database, extra_relations=extra)
        fresh = evaluator.evaluate_with_bindings(query)
        held = evaluator.evaluate_with_bindings(query, program=evaluator.compile(query))
        assert set(fresh) == set(held) == brute_force(query, database, extra)
        as_sets = lambda bindings: {frozenset(b.items()) for b in bindings}
        for row, bindings in fresh.items():
            assert as_sets(bindings) == as_sets(held[row])
            for binding in bindings:
                assert evaluator.output_tuple(query, binding) == row
                for atom in query.body:
                    relation = (
                        extra[atom.predicate]
                        if atom.predicate in extra
                        else database.relation(atom.predicate)
                    )
                    image = tuple(
                        term.value if isinstance(term, Constant) else binding[term]
                        for term in atom.terms
                    )
                    assert image in relation

    @given(acyclic_queries(max_atoms=3), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=50, deadline=None)
    def test_held_acyclic_program_equals_fresh_evaluation_after_each_drift(
        self, query, instance, ops
    ):
        # Drift reaches the view-like extra relation directly (only its
        # version moves) as well as the database relations; the held program
        # and its evaluator's version-stamped indexes must stay exact after
        # each step.
        database, extra = instance
        held = HeldQuery(QueryEvaluator(database, extra_relations=extra), query)
        assert held.rows() == brute_force(query, database, extra)
        for op in ops:
            apply_drift(database, extra, [op])
            reference = brute_force(query, database, extra)
            assert held.rows() == reference
            assert _answers(database, extra, query) == reference

    @given(random_queries(), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=40, deadline=None)
    def test_held_program_of_any_shape_equals_fresh_evaluation_after_drift(
        self, query, instance, ops
    ):
        database, extra = instance
        held = HeldQuery(QueryEvaluator(database, extra_relations=extra), query)
        held.rows()
        apply_drift(database, extra, ops)
        reference = brute_force(query, database, extra)
        assert held.rows() == reference
        assert _answers(database, extra, query) == reference

    @given(self_join_queries(), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=30, deadline=None)
    def test_held_self_join_sees_each_drift_at_every_step(self, query, instance, ops):
        # Steps repeating one predicate probe indexes stamped with the same
        # relation's version: a drift of R must reach every R step at once.
        database, extra = instance
        held = HeldQuery(QueryEvaluator(database, extra_relations=extra), query)
        held.rows()
        apply_drift(database, extra, ops)
        assert held.rows() == brute_force(query, database, extra)

    @given(self_join_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_self_joins_agree_in_both_access_modes(self, query, instance):
        database, extra = instance
        reference = brute_force(query, database, extra)
        assert _answers(database, extra, query) == reference
        assert _answers(database, extra, query, use_indexes=False) == reference

    @given(self_join_queries(), random_instances())
    @settings(max_examples=40, deadline=None)
    def test_generated_self_joins(self, query, instance):
        database, extra = instance
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)

    @given(random_instances())
    @settings(max_examples=30, deadline=None)
    def test_explicit_self_join(self, instance):
        from repro.query.ast import Atom, ConjunctiveQuery, Variable

        database, extra = instance
        query = ConjunctiveQuery(
            Atom("Q", (Variable("X"), Variable("Z"))),
            (
                Atom("R", (Variable("X"), Variable("Y"))),
                Atom("R", (Variable("Y"), Variable("Z"))),
            ),
        )
        evaluator = QueryEvaluator(database, extra_relations=extra)
        assert evaluator.evaluate(query).rows == brute_force(query, database, extra)
