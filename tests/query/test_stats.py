"""Tests for the statistics catalog, the cost model and evaluation metrics.

The cost model replaced the fixed 4096-row cardinality threshold of
``strategy="auto"``: these tests pin the statistics it reads (row counts,
distinct keys, bucket skew, sampled key overlap — all version-stamped and
lazily refreshed), the two decision directions the fixed threshold got wrong
(dense-large must run the plain program, sparse-small must reduce), and the
metrics every decision leaves behind.
"""

import pytest

from repro.query.compiler import PreludeCache, reduce_program
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.query.stats import (
    EvaluationMetrics,
    StatisticsCatalog,
)
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("S", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("T", [Attribute("a", int), Attribute("b", int)]),
    ]
)

PATH = parse_query("Q(A, D) :- R(A, B), S(B, C), T(C, D)")

#: The fixed total-cardinality gate ``strategy="auto"`` used before the cost
#: model: reduce at or above this many body rows.
FIXED_THRESHOLD = 4096


def _relation(name: str, rows) -> Relation:
    return Relation(
        RelationSchema(name, [Attribute("a", int), Attribute("b", int)]), rows
    )


class TestStatisticsCatalog:
    def test_row_counts_and_version_stamping(self):
        relation = _relation("R", [(1, 2), (3, 4)])
        catalog = StatisticsCatalog()
        stats = catalog.statistics("R", relation)
        assert stats.row_count == 2
        assert catalog.statistics("R", relation) is stats  # cached
        relation.insert((5, 6))
        refreshed = catalog.statistics("R", relation)
        assert refreshed is not stats
        assert refreshed.row_count == 3

    def test_replacing_the_relation_object_refreshes(self):
        catalog = StatisticsCatalog()
        catalog.statistics("R", _relation("R", [(1, 2)]))
        other = _relation("R", [(1, 2), (3, 4)])
        assert catalog.statistics("R", other).row_count == 2

    def test_distinct_counts_via_the_index_manager(self):
        relation = _relation("R", [(1, 10), (1, 11), (2, 12)])
        manager = IndexManager()
        catalog = StatisticsCatalog(manager)
        assert catalog.distinct_count("R", relation, (0,)) == 2
        assert catalog.distinct_count("R", relation, (1,)) == 3
        assert catalog.max_bucket("R", relation, (0,)) == 2
        # The manager now holds the very indexes a join would probe with.
        assert len(manager) == 2

    def test_distinct_counts_without_a_manager_fall_back_to_scans(self):
        relation = _relation("R", [(1, 10), (1, 11), (2, 12)])
        catalog = StatisticsCatalog()
        assert catalog.distinct_count("R", relation, (0,)) == 2
        assert catalog.max_bucket("R", relation, (0,)) == 2

    def test_skew_reads_uniformity(self):
        relation = _relation("R", [(1, i) for i in range(9)] + [(2, 0), (3, 0)])
        catalog = StatisticsCatalog(IndexManager())
        catalog.max_bucket("R", relation, (0,))
        stats = catalog.statistics("R", relation)
        # 11 rows over 3 keys, biggest bucket 9: skew 9 / (11/3).
        assert stats.skew((0,)) == pytest.approx(9 / (11 / 3))

    def test_key_overlap_fractions(self):
        left = _relation("L", [(i, 0) for i in range(10)])       # keys 0..9
        right = _relation("Rr", [(i, 0) for i in range(5, 20)])  # keys 5..19
        catalog = StatisticsCatalog(IndexManager())
        left_in_right, right_in_left = catalog.key_overlap(
            ("L", left, (0,)), ("Rr", right, (0,))
        )
        assert left_in_right == pytest.approx(0.5)
        assert right_in_left == pytest.approx(5 / 15)

    def test_key_overlap_of_an_empty_side_is_zero(self):
        left = _relation("L", [(1, 0)])
        right = _relation("Rr", [])
        catalog = StatisticsCatalog()
        assert catalog.key_overlap(("L", left, (0,)), ("Rr", right, (0,))) == (
            0.0,
            0.0,
        )

    def test_key_overlap_refreshes_on_version_drift(self):
        left = _relation("L", [(0, 0)])
        right = _relation("Rr", [(1, 0)])
        catalog = StatisticsCatalog()
        assert catalog.key_overlap(("L", left, (0,)), ("Rr", right, (0,)))[0] == 0.0
        right.insert((0, 1))
        assert catalog.key_overlap(("L", left, (0,)), ("Rr", right, (0,)))[0] == 1.0

    def test_invalidate_drops_everything(self):
        relation = _relation("R", [(1, 2)])
        catalog = StatisticsCatalog()
        catalog.statistics("R", relation)
        assert len(catalog) == 1
        catalog.invalidate()
        assert len(catalog) == 0


def _dense_db(rows: int = 1200) -> Database:
    """Fully joining chain: every key matches, nothing dangles."""
    database = Database(SCHEMA)
    database.insert_many("R", ((i, i) for i in range(rows)))
    database.insert_many("S", ((i, i) for i in range(rows)))
    database.insert_many("T", ((i, i) for i in range(rows)))
    return database


def _sparse_db(rows: int = 300, fanout: int = 15) -> Database:
    """Fan-out chain whose last relation is ~98% disjoint: most partial
    bindings the plain program enumerates die at the final probe."""
    domain = rows // fanout
    database = Database(SCHEMA)
    database.insert_many("R", ((i, i % domain) for i in range(rows)))
    database.insert_many("S", ((i % domain, i) for i in range(rows)))
    survivors = max(2, rows // 50)
    database.insert_many(
        "T",
        [(i, i) for i in range(survivors)]
        + [(rows + i, i) for i in range(rows - survivors)],
    )
    return database


class TestCostModel:
    def _estimate(self, database):
        evaluator = QueryEvaluator(database)
        reduced = evaluator.reduce(PATH)
        relations = {name: database.relation(name) for name in ("R", "S", "T")}
        return evaluator.cost_model.estimate(reduced, relations)

    def test_dense_data_never_pays_the_prelude(self):
        estimate = self._estimate(_dense_db())
        assert not estimate.prefers_reduction
        assert estimate.strategy == "program"
        # Nothing dangles: the reduced cost is the plain cost plus the
        # prelude, so the margin is exactly the prelude.
        assert estimate.survival == (1.0, 1.0, 1.0)
        assert estimate.reduced_cost == pytest.approx(
            estimate.program_cost + estimate.prelude_cost
        )

    def test_dangling_heavy_data_prefers_the_reduction(self):
        estimate = self._estimate(_sparse_db())
        assert estimate.prefers_reduction
        assert estimate.strategy == "reduced"
        assert min(estimate.survival) < 0.25

    def test_threshold_is_wrong_in_both_directions(self):
        # The two workloads the fixed 4096-row gate misjudges, pinned.
        dense = _dense_db(1500)   # 4500 rows total: threshold said "reduced"
        sparse = _sparse_db(300)  # 900 rows total: threshold said "program"
        assert dense.total_rows() >= FIXED_THRESHOLD
        assert sparse.total_rows() < FIXED_THRESHOLD
        assert QueryEvaluator(dense).select_strategy(PATH) == "program"
        assert QueryEvaluator(sparse).select_strategy(PATH) == "reduced"

    def test_cartesian_products_gain_nothing(self):
        database = Database(SCHEMA)
        database.insert_many("R", ((i, i) for i in range(10)))
        database.insert_many("S", ((i, i) for i in range(10)))
        query = parse_query("Q(A, C) :- R(A, B), S(C, D)")
        evaluator = QueryEvaluator(database)
        reduced = evaluator.reduce(query)
        assert reduced.semi_joins == ()  # disconnected: no useful edges
        relations = {"R": database.relation("R"), "S": database.relation("S")}
        verdict = evaluator.cost_model.estimate(reduced, relations)
        assert not verdict.prefers_reduction
        assert verdict.prelude_cost == 0.0

    def test_as_dict_is_json_friendly(self):
        import json

        estimate = self._estimate(_sparse_db())
        payload = estimate.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["strategy"] == "reduced"


class TestEvaluationMetrics:
    def test_picks_and_reasons_are_counted(self):
        metrics = EvaluationMetrics()
        metrics.record_pick("program", "cost_model")
        metrics.record_pick("reduced", "warm_prelude")
        metrics.record_pick("reduced", "forced")
        snapshot = metrics.snapshot()
        assert snapshot["picks"] == {"program": 1, "reduced": 2}
        assert snapshot["pick_reasons"] == {
            "cost_model": 1,
            "forced": 1,
            "warm_prelude": 1,
        }

    def test_estimates_and_actuals_aggregate(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_sparse_db(), metrics=metrics)
        reduced = reduce_program(evaluator.compile(PATH))
        prelude = PreludeCache(reduced)
        for _ in range(2):
            evaluator.evaluate_with_bindings(
                PATH, program=reduced.program, reduced=reduced, prelude=prelude
            )
        snapshot = metrics.snapshot()
        assert snapshot["picks"]["reduced"] == 2
        # The second evaluation rides the warm prelude: one cold estimate.
        assert snapshot["cost_model"]["estimates"] == 1
        assert snapshot["pick_reasons"].get("warm_prelude") == 1
        assert snapshot["cost_model"]["actual_ms"]["reduced"]["count"] == 2
        assert snapshot["cost_model"]["actual_ms"]["reduced"]["mean_ms"] > 0.0

    def test_prelude_counters_flow_through(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(
            _sparse_db(), strategy="reduced", metrics=metrics
        )
        reduced = reduce_program(evaluator.compile(PATH))
        held = PreludeCache(reduced, metrics=metrics)
        for _ in range(2):
            evaluator.evaluate_with_bindings(
                PATH, program=reduced.program, reduced=reduced, prelude=held
            )
        prelude = metrics.snapshot()["prelude_cache"]
        assert prelude["hits"] == 1
        assert prelude["misses"] == 1
        assert prelude["steps_recomputed"] == 3
        assert prelude["hit_rate"] == 0.5

    def test_reset_zeroes_everything(self):
        metrics = EvaluationMetrics()
        metrics.record_pick("program", "forced")
        metrics.record_prelude(hit=True)
        metrics.reset()
        snapshot = metrics.snapshot()
        assert snapshot["picks"] == {"program": 0, "reduced": 0}
        assert snapshot["prelude_cache"]["hits"] == 0

    def test_snapshot_is_json_friendly(self):
        import json

        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_sparse_db(), metrics=metrics)
        evaluator.evaluate(PATH)
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestCacheBounds:
    def test_select_strategy_leaves_no_metric_trace(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_sparse_db(), metrics=metrics)
        evaluator.select_strategy(PATH)
        snapshot = metrics.snapshot()
        assert snapshot["picks"] == {"program": 0, "reduced": 0}
        assert snapshot["cost_model"]["estimates"] == 0
