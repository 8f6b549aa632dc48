"""Property: warm-prelude evaluation is indistinguishable from cold.

Re-evaluating one query through a held program, reduction and prelude
(:class:`strategies.HeldQuery`, as a citation plan holds them) accumulates
warm :class:`~repro.query.compiler.PreludeCache` state — full snapshots on
unchanged data, partially refreshed candidates after drift (only drifted
steps recompute, untouched subtrees' semi-joined key sets are reused).  For
every generated query, instance and interleaved insert/delete sequence the
harness checks, after **each** drift step,

    warm prelude == cold reduction == brute force

so no memoization path can ever serve a stale candidate list.  Drift covers
both invalidation channels: database relations mutate through the
``Database`` update path, the view-like extra relation ``V`` is mutated
directly (only its ``Relation.version`` moves).
"""

from hypothesis import given, settings

from strategies import (
    HeldQuery,
    acyclic_queries,
    apply_drift,
    brute_force,
    drift_sequences,
    random_instances,
    random_queries,
    self_join_queries,
)

from repro.query.evaluator import QueryEvaluator


def _cold_answers(database, extra, query):
    return QueryEvaluator(
        database, extra_relations=extra, strategy="reduced"
    ).evaluate(query).rows


class TestWarmPreludeEquivalence:
    @given(acyclic_queries(max_atoms=3), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=50, deadline=None)
    def test_acyclic_warm_equals_cold_equals_brute_force_under_drift(
        self, query, instance, ops
    ):
        database, extra = instance
        warm = HeldQuery(
            QueryEvaluator(database, extra_relations=extra, strategy="reduced"), query
        )
        assert warm.rows() == brute_force(query, database, extra)
        for op in ops:
            apply_drift(database, extra, [op])
            reference = brute_force(query, database, extra)
            assert warm.rows() == reference  # partial refresh
            assert _cold_answers(database, extra, query) == reference

    @given(random_queries(), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=40, deadline=None)
    def test_any_shape_warm_equals_cold_under_drift(self, query, instance, ops):
        # Cyclic queries cache their SIP-only prelude the same way.
        database, extra = instance
        warm = HeldQuery(
            QueryEvaluator(database, extra_relations=extra, strategy="reduced"), query
        )
        warm.rows()
        apply_drift(database, extra, ops)
        reference = brute_force(query, database, extra)
        assert warm.rows() == reference
        assert _cold_answers(database, extra, query) == reference

    @given(self_join_queries(), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=30, deadline=None)
    def test_self_joins_share_one_drift_stamp_per_relation(
        self, query, instance, ops
    ):
        # Steps repeating one predicate stamp the same relation: a drift of R
        # must invalidate every R step at once.
        database, extra = instance
        warm = HeldQuery(
            QueryEvaluator(database, extra_relations=extra, strategy="reduced"), query
        )
        warm.rows()
        apply_drift(database, extra, ops)
        assert warm.rows() == brute_force(query, database, extra)

    @given(acyclic_queries(max_atoms=3), random_instances(max_rows=6))
    @settings(max_examples=30, deadline=None)
    def test_unchanged_data_always_hits(self, query, instance):
        database, extra = instance
        held = HeldQuery(
            QueryEvaluator(database, extra_relations=extra, strategy="reduced"), query
        )
        first = held.rows()
        second = held.rows()
        assert first == second
        prelude = held.prelude
        assert prelude.hits >= 1
        assert prelude.misses == 1

    @given(random_queries(), random_instances(max_rows=6), drift_sequences())
    @settings(max_examples=30, deadline=None)
    def test_auto_matches_brute_force_under_drift(self, query, instance, ops):
        # The cost model may flip its pick as the data drifts; whatever it
        # runs must stay exact.
        database, extra = instance
        auto = HeldQuery(QueryEvaluator(database, extra_relations=extra), query)
        auto.rows()
        apply_drift(database, extra, ops)
        assert auto.rows() == brute_force(query, database, extra)
