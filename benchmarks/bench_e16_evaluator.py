"""E16 — the compiled CQ hot path: join programs and view indexing.

The evaluator used to re-pick the atom order and re-resolve relations at
every recursion level, copy the binding dict per candidate row, and — because
of the database-only index gate — degrade every probe into an extra relation
(exactly the view-backed probes that rewriting produces) to a linear scan.
This experiment measures the compiled :class:`~repro.query.compiler.JoinProgram`
path against a faithful copy of the seed evaluator on

* a multi-atom conjunctive query (4-way join over the synthetic GtoPdb
  instance), and
* a materialised-view probe workload (a base-relation scan joined into a
  view passed as an ``extra_relation``);

the acceptance bar is a combined >= 3x speed-up.  A self-join sanity section
checks the R ⋈ R crash is gone, in both the algebra layer (duplicate
prefixed attributes used to raise ``SchemaError``) and the evaluator.

Smoke mode (``REPRO_BENCH_SMOKE=1``, set by CI) shrinks the instance and the
round count so the experiment stays a quick regression gate.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Iterator

from repro.query.ast import Constant, Variable
from repro.query.compiler import PreludeCache, reduce_program
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads import gtopdb
from benchmarks.conftest import report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FAMILIES = 60 if SMOKE else 200
ROUNDS = 2 if SMOKE else 5


# ---------------------------------------------------------------------------
# The seed evaluator, verbatim: greedy per-level atom picking, per-row dict
# copies, and indexes only for database-backed relations (the
# ``backed_by_database`` gate that forced extra relations onto linear scans).
# ---------------------------------------------------------------------------
class SeedEvaluator:
    def __init__(self, database, extra_relations=None, use_indexes=True):
        self.database = database
        self.extra_relations = dict(extra_relations or {})
        self.use_indexes = use_indexes

    def _relation_for(self, predicate):
        if predicate in self.extra_relations:
            return self.extra_relations[predicate]
        return self.database.relation(predicate)

    def bindings(self, query) -> Iterator[dict]:
        seed: dict = {}
        for eq in query.equalities:
            seed[eq.variable] = eq.constant.value
        yield from self._join(list(query.body), seed)

    def _join(self, atoms, binding):
        if not atoms:
            yield dict(binding)
            return
        index = self._pick_next_atom(atoms, binding)
        atom = atoms[index]
        rest = atoms[:index] + atoms[index + 1 :]
        for extended in self._match_atom(atom, binding):
            yield from self._join(rest, extended)

    def _pick_next_atom(self, atoms, binding):
        def boundness(atom):
            bound = 0
            for term in atom.terms:
                if isinstance(term, Constant) or (
                    isinstance(term, Variable) and term in binding
                ):
                    bound += 1
            relation = self._relation_for(atom.predicate)
            return (-bound, len(relation))

        return min(range(len(atoms)), key=lambda i: boundness(atoms[i]))

    def _match_atom(self, atom, binding):
        relation = self._relation_for(atom.predicate)
        bound_positions: dict[int, object] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                bound_positions[position] = term.value
            elif isinstance(term, Variable) and term in binding:
                bound_positions[position] = binding[term]
        backed_by_database = (
            atom.predicate not in self.extra_relations and atom.predicate in self.database
        )
        if bound_positions and self.use_indexes and backed_by_database:
            positions = tuple(sorted(bound_positions))
            attributes = [relation.schema.attribute_names[i] for i in positions]
            index = self.database.index_on(atom.predicate, attributes)
            rows: Iterable[tuple] = index.lookup(
                tuple(bound_positions[i] for i in positions)
            )
        elif bound_positions:
            rows = relation.rows_matching(bound_positions)
        else:
            rows = relation
        for row in rows:
            extended = self._unify_row(atom, row, binding)
            if extended is not None:
                yield extended

    @staticmethod
    def _unify_row(atom, row, binding):
        extended = dict(binding)
        for term, value in zip(atom.terms, row):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            else:
                existing = extended.get(term, _MISSING)
                if existing is _MISSING:
                    extended[term] = value
                elif existing != value:
                    return None
        return extended

    def evaluate_rows(self, query) -> set[tuple]:
        out = set()
        for binding in self.bindings(query):
            out.add(
                tuple(
                    t.value if isinstance(t, Constant) else binding[t]
                    for t in query.head_terms
                )
            )
        return out


_MISSING = object()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def _instance():
    return gtopdb.generate(
        families=FAMILIES, targets_per_family=3, ligands=FAMILIES, seed=23
    )


MULTI_ATOM_QUERY = parse_query(
    "Q(FName, TName, LName) :- Family(FID, FName, D), Target(TID, FID, TName, TT), "
    "Interaction(TID, LID, Act, Aff), Ligand(LID, LName, LT)"
)

VIEW_PROBE_QUERY = parse_query(
    "Q(TName, FName, Text) :- Target(TID, FID, TName, TT), VFam(FID, FName, Text)"
)


def _family_view(database) -> Relation:
    """A materialised view joining Family with FamilyIntro (as rewriting would)."""
    schema = RelationSchema(
        "VFam", [Attribute("FID", int), Attribute("FName", str), Attribute("Text", str)]
    )
    evaluator = QueryEvaluator(database)
    joined = evaluator.evaluate(
        parse_query("VFam(FID, FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)")
    )
    return Relation(schema, joined.rows)


def _best_of(callable_, rounds: int = ROUNDS) -> tuple[object, float]:
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return value, best


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------
def test_e16_compiled_vs_seed_evaluator():
    database = _instance()
    view = _family_view(database)
    extras = {"VFam": view}

    seed_eval = SeedEvaluator(database, extra_relations=extras)
    compiled_eval = QueryEvaluator(database, extra_relations=extras)

    rows_list = []
    totals = {"seed": 0.0, "compiled": 0.0}
    for label, query in (
        ("multi-atom CQ", MULTI_ATOM_QUERY),
        ("view probe", VIEW_PROBE_QUERY),
    ):
        seed_rows, seed_time = _best_of(lambda: seed_eval.evaluate_rows(query))
        compiled_rows, compiled_time = _best_of(
            lambda: compiled_eval.evaluate(query).rows
        )
        assert compiled_rows == seed_rows, f"{label}: answers diverged"
        totals["seed"] += seed_time
        totals["compiled"] += compiled_time
        rows_list.append(
            {
                "workload": label,
                "answers": len(seed_rows),
                "seed_ms": round(seed_time * 1000, 2),
                "compiled_ms": round(compiled_time * 1000, 2),
                "speedup": round(seed_time / compiled_time, 1)
                if compiled_time
                else float("inf"),
            }
        )

    combined = totals["seed"] / totals["compiled"] if totals["compiled"] else float("inf")
    rows_list.append(
        {
            "workload": "combined",
            "answers": "-",
            "seed_ms": round(totals["seed"] * 1000, 2),
            "compiled_ms": round(totals["compiled"] * 1000, 2),
            "speedup": round(combined, 1),
        }
    )
    report("E16: compiled join programs vs seed evaluator", rows_list)
    assert combined >= 3.0, (
        f"expected >= 3x combined speedup over the seed evaluator, got {combined:.2f}x"
    )


def test_e16_plan_cached_programs_amortize_compilation():
    """Repeated evaluation reuses a held program, reduction and prelude.

    The evaluator keeps no per-query state; the caller holds the compiled
    artifacts, as a citation plan does, and passes them into every call.
    """
    database = _instance()
    warm_eval = QueryEvaluator(database)
    program = warm_eval.compile(MULTI_ATOM_QUERY)
    reduced = reduce_program(program)
    prelude = PreludeCache(reduced)
    assert reduced.program is program and prelude.reduced is reduced

    def held():
        return warm_eval.evaluate_with_bindings(
            MULTI_ATOM_QUERY, program=program, reduced=reduced, prelude=prelude
        )

    _result, cold = _best_of(
        lambda: QueryEvaluator(database).evaluate_with_bindings(MULTI_ATOM_QUERY), 1
    )
    held()
    _result, warm = _best_of(held)
    report(
        "E16: program + index reuse (same evaluator)",
        [
            {
                "cold_ms": round(cold * 1000, 2),
                "warm_ms": round(warm * 1000, 2),
            }
        ],
    )
    # The warm path must not be slower: programs, preludes and indexes are
    # reused.
    assert warm <= cold * 1.5


def test_e16_self_join_no_schema_error():
    """Regression: self-joins used to raise SchemaError on duplicate attributes."""
    database = _instance()
    committee = database.relation("Committee")

    product = algebra.cartesian_product(committee, committee)
    joined = algebra.equi_join(committee, committee, [("FID", "FID")])
    names = joined.schema.attribute_names
    assert len(set(names)) == len(names)
    assert len(product) == len(committee) ** 2

    # And through the evaluator: the same predicate twice in one body.
    query = parse_query("Q(P1, P2) :- Committee(FID, P1), Committee(FID, P2)")
    result = QueryEvaluator(database).evaluate(query)
    assert result.rows == SeedEvaluator(database).evaluate_rows(query)
    assert len(result) > 0
    report(
        "E16: self-join sanity",
        [
            {
                "committee_rows": len(committee),
                "equi_join_rows": len(joined),
                "cq_self_join_rows": len(result),
            }
        ],
    )
