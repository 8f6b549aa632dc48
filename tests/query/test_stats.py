"""Tests for the statistics catalog and the evaluation metrics.

The catalog serves the rewriting cost model's distinct counts: row counts
and per-position distinct values, version-stamped and lazily refreshed.
The metrics count and time every join evaluation, overall and per query
fingerprint.
"""

import json

from repro.observability.context import fingerprint_scope
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.query.stats import EvaluationMetrics, StatisticsCatalog
from repro.relational.database import Database
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


def _relation(name: str, rows) -> Relation:
    return Relation(
        RelationSchema(name, [Attribute("a", int), Attribute("b", int)]), rows
    )


def _chain_db(rows: int = 50) -> Database:
    database = Database(SCHEMA)
    database.insert_many("R", ((i, i) for i in range(rows)))
    database.insert_many("S", ((i, i) for i in range(rows)))
    database.insert_many("T", ((i, i) for i in range(rows)))
    return database


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

    def test_distinct_counts_without_a_manager_fall_back_to_scans(self):
        relation = _relation("R", [(1, 10), (1, 11), (2, 12)])
        catalog = StatisticsCatalog()
        assert catalog.distinct_count("R", relation, (0,)) == 2
        assert catalog.distinct_count("R", relation, (1,)) == 3

    def test_distinct_counts_are_cached_per_version(self, monkeypatch):
        relation = _relation("R", [(1, 10), (1, 11), (2, 12)])
        catalog = StatisticsCatalog()
        scans = []
        original = Relation.project_positions

        def counting(self, positions):
            scans.append(self.schema.name)
            return original(self, positions)

        monkeypatch.setattr(Relation, "project_positions", counting)
        assert catalog.distinct_count("R", relation, (0,)) == 2
        assert catalog.distinct_count("R", relation, (0,)) == 2
        assert scans == ["R"]
        relation.insert((3, 13))
        assert catalog.distinct_count("R", relation, (0,)) == 3
        assert scans == ["R", "R"]

    def test_invalidate_drops_everything(self):
        relation = _relation("R", [(1, 2)])
        catalog = StatisticsCatalog()
        catalog.statistics("R", relation)
        assert len(catalog) == 1
        catalog.invalidate()
        assert len(catalog) == 0


class TestEvaluationMetrics:
    def test_evaluations_are_counted_and_timed(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_chain_db(), metrics=metrics)
        evaluator.evaluate(PATH)
        evaluator.evaluate_with_bindings(PATH)
        snapshot = metrics.snapshot()
        assert snapshot["evaluations"] == 2
        assert snapshot["mean_ms"] > 0.0
        assert snapshot["tracked_queries"] == 0  # no fingerprint in scope

    def test_evaluations_accumulate_per_fingerprint(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_chain_db(), metrics=metrics)
        with fingerprint_scope("fp-path"):
            evaluator.evaluate(PATH)
            evaluator.evaluate(PATH)
        profiles = metrics.query_profiles()
        assert list(profiles) == ["fp-path"]
        assert profiles["fp-path"]["evaluations"] == 2
        assert profiles["fp-path"]["mean_ms"] > 0.0

    def test_tracked_fingerprints_are_bounded(self, monkeypatch):
        monkeypatch.setattr(EvaluationMetrics, "MAX_TRACKED_QUERIES", 2)
        metrics = EvaluationMetrics()
        for fingerprint in ("a", "b", "c"):
            metrics.record(0.001, fingerprint)
        assert list(metrics.query_profiles()) == ["b", "c"]
        assert metrics.snapshot()["evaluations"] == 3

    def test_reset_zeroes_everything(self):
        metrics = EvaluationMetrics()
        metrics.record(0.002, "fp")
        metrics.reset()
        assert metrics.snapshot() == {"evaluations": 0, "mean_ms": 0.0, "tracked_queries": 0}
        assert metrics.query_profiles() == {}

    def test_snapshot_is_json_friendly(self):
        metrics = EvaluationMetrics()
        evaluator = QueryEvaluator(_chain_db(), metrics=metrics)
        evaluator.evaluate(PATH)
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
