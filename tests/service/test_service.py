"""Tests for the CitationService facade: caching, batching, concurrency."""

from __future__ import annotations

import gc
import time

import pytest

import repro.core.engine as engine_module
from repro import (
    CitationEngine,
    CitationPolicy,
    CitationRequest,
    CitationService,
    parse_query,
)
from repro.core.incremental import IncrementalCitationMaintainer
from repro.errors import NoRewritingError
from repro.workloads import gtopdb


def _same_cited_result(left, right) -> None:
    """Assert two cited results agree on answers and citations."""
    assert {tc.row for tc in left.tuple_citations} == {
        tc.row for tc in right.tuple_citations
    }
    assert left.citation.records == right.citation.records
    left_by_row = {tc.row: tc.records for tc in left.tuple_citations}
    right_by_row = {tc.row: tc.records for tc in right.tuple_citations}
    assert left_by_row == right_by_row


@pytest.fixture
def db():
    return gtopdb.generate(families=30, targets_per_family=2, ligands=40, seed=5)


@pytest.fixture
def engine(db):
    return CitationEngine(
        db, gtopdb.citation_views(extended=True), policy=CitationPolicy.default()
    )


@pytest.fixture
def service(engine):
    with CitationService(engine) as svc:
        yield svc


QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
QUERY_RENAMED = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"


def cq(query: str) -> CitationRequest:
    """A relational-backend request for one conjunctive query."""
    return CitationRequest(query=query, backend="relational")


class TestSingleRequests:
    def test_matches_engine_cite(self, service, engine):
        _same_cited_result(service.cite(QUERY), engine.cite(QUERY))

    def test_repeat_is_served_from_result_cache(self, service):
        first = service.submit(cq(QUERY))
        second = service.submit(cq(QUERY))
        assert not first.cached and second.cached
        _same_cited_result(first.result, second.result)
        assert service.metrics.counter("result_cache_hits") == 1
        assert service.metrics.counter("executions") == 1

    def test_renamed_query_reuses_cache_but_keeps_its_schema(self, service):
        service.cite(QUERY)
        result = service.cite(QUERY_RENAMED)
        assert [a.name for a in result.result.schema.attributes] == ["N"]
        assert str(result.query) == str(parse_query(QUERY_RENAMED))
        assert service.metrics.counter("plan_compilations") == 1

    def test_plan_cache_hit_when_results_not_cached(self, engine):
        with CitationService(engine, cache_results=False) as service:
            service.cite(QUERY)
            service.cite(QUERY)
            assert service.metrics.counter("plan_compilations") == 1
            assert service.metrics.counter("plan_cache_hits") == 1
            assert service.metrics.counter("executions") == 2

    def test_modes_are_cached_separately(self, service):
        service.cite(QUERY, mode="formal")
        service.cite(QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2

    def test_error_is_raised_by_cite_and_reported_by_try_cite(self, service):
        with pytest.raises(NoRewritingError):
            service.cite("Q(PName) :- Contributor(TID, PName)")
        response = service.submit(cq("Q(PName) :- Contributor(TID, PName)"))
        assert not response.ok and isinstance(response.error, NoRewritingError)
        with pytest.raises(NoRewritingError):
            response.unwrap()

    def test_fallback_engine_serves_uncovered_queries(self, db):
        engine = CitationEngine(
            db, gtopdb.citation_views(), on_no_rewriting="fallback"
        )
        with CitationService(engine) as service:
            result = service.cite("Q(PName) :- Contributor(TID, PName)")
            assert result.used_fallback
            repeat = service.submit(cq("Q(PName) :- Contributor(TID, PName)"))
            assert repeat.cached and repeat.result.used_fallback


class TestInvalidation:
    def test_mutation_invalidates_cached_results(self, service, db):
        before = service.cite(QUERY)
        db.insert("Family", (9001, "Brand new family", "d"))
        db.insert("FamilyIntro", (9001, "intro text"))
        after = service.cite(QUERY)
        rows = {tc.row for tc in after.tuple_citations}
        assert ("Brand new family",) in rows
        assert ("Brand new family",) not in {tc.row for tc in before.tuple_citations}

    def test_mutation_reuses_data_independent_formal_plan(self, service, db):
        # Formal-mode plans read only the query and view definitions: a data
        # change must invalidate cached *results* but not the plan.
        service.cite(QUERY, mode="formal")
        db.insert("Family", (9002, "Another family", "d"))
        db.insert("FamilyIntro", (9002, "intro"))
        fresh = service.cite(QUERY, mode="formal")
        assert ("Another family",) in {tc.row for tc in fresh.tuple_citations}
        assert service.metrics.counter("plan_compilations") == 1
        assert service.metrics.counter("plan_cache_hits") == 1
        assert service.metrics.counter("executions") == 2

    def test_mutation_forces_recompilation_in_economical_mode(self, service, db):
        # Economical plans embed a cost-based selection made against the
        # data, so a mutation retires them.
        service.cite(QUERY, mode="economical")
        db.insert("Family", (9002, "Another family", "d"))
        service.cite(QUERY, mode="economical")
        assert service.metrics.counter("plan_compilations") == 2
        assert service.plan_cache.info().invalidations >= 1

    def test_delete_also_invalidates(self, service, db):
        service.cite(QUERY)
        intro_row = next(iter(db.relation("FamilyIntro").rows))
        db.delete("FamilyIntro", intro_row)
        fresh = service.cite(QUERY)
        _same_cited_result(fresh, service.engine.cite(QUERY))

    def test_forced_engine_invalidation_drops_service_caches(self, service):
        service.cite(QUERY)
        service.engine.invalidate_caches()
        response = service.submit(cq(QUERY))
        assert not response.cached
        assert service.metrics.counter("plan_compilations") == 2

    def test_explicit_service_invalidate(self, service):
        service.cite(QUERY)
        service.invalidate()
        assert len(service.plan_cache) == 0 and len(service.result_cache) == 0

    def test_view_materialization_hoisted_per_generation(self, engine, monkeypatch):
        calls = {"count": 0}
        original = engine_module.materialize_views

        def counting(views, database):
            calls["count"] += 1
            return original(views, database)

        monkeypatch.setattr(engine_module, "materialize_views", counting)
        with CitationService(engine, cache_results=False) as service:
            for _ in range(4):
                service.cite(QUERY)
            assert calls["count"] == 1
            engine.database.insert("Family", (9003, "Yet another family", "d"))
            service.cite(QUERY)
            assert calls["count"] == 2


class TestBatching:
    def test_cite_batch_matches_sequential(self, service, engine):
        queries = [QUERY, QUERY_RENAMED, "Q2(FID, FName, Desc) :- Family(FID, FName, Desc)"]
        batch = service.submit_batch([cq(query) for query in queries])
        for query, response in zip(queries, batch):
            _same_cited_result(response.unwrap(), engine.cite(query))

    def test_cite_batch_deduplicates(self, service):
        queries = [QUERY, QUERY_RENAMED, QUERY, QUERY_RENAMED, QUERY]
        service.submit_batch([cq(query) for query in queries])
        assert service.metrics.counter("executions") == 1
        assert service.metrics.counter("deduplicated") == 4

    def test_cite_many_matches_sequential(self, engine):
        queries = list(gtopdb.example_queries()) * 2
        sequential = [engine.cite(query) for query in queries]
        with CitationService(engine, max_workers=6) as service:
            responses = service.submit_batch([cq(query) for query in queries])
        assert len(responses) == len(queries)
        assert all(response.ok for response in responses)
        for expected, response in zip(sequential, responses):
            _same_cited_result(response.result, expected)
            assert (
                expected.result.schema.attributes
                == response.result.result.schema.attributes
            )

    def test_cite_many_error_isolation(self, service):
        queries = [
            QUERY,
            "completely invalid ::",
            "Q(PName) :- Contributor(TID, PName)",
            QUERY_RENAMED,
        ]
        responses = service.submit_batch([cq(query) for query in queries])
        assert [response.ok for response in responses] == [True, False, False, True]
        assert service.metrics.counter("errors") == 2

    def test_cite_many_shares_error_across_duplicates(self, service):
        bad = "Q(PName) :- Contributor(TID, PName)"
        responses = service.submit_batch([cq(bad), cq(bad)])
        assert all(not response.ok for response in responses)
        assert all(
            isinstance(response.error, NoRewritingError) for response in responses
        )

    def test_cite_many_timeout_isolated(self, service, engine, monkeypatch):
        original = engine.execute_plan

        def slow_execute(plan, query=None):
            time.sleep(0.25)
            return original(plan, query)

        monkeypatch.setattr(engine, "execute_plan", slow_execute)
        # A full collection of the suite's heap can pause the worker longer
        # than the 10ms budget before it reaches slow_execute; its deadline
        # checkpoint then answers in time and nothing is left to time out.
        gc.collect()
        responses = service.submit_batch([cq(QUERY)], timeout=0.01)
        assert not responses[0].ok
        assert isinstance(responses[0].error, TimeoutError)
        assert service.metrics.counter("timeouts") == 1

    def test_warm_precompiles_plans(self, service):
        queries = gtopdb.example_queries()
        assert [service.plan_for(query)[1] for query in queries] == [False] * len(queries)
        assert [service.plan_for(query)[1] for query in queries] == [True] * len(queries)
        assert service.metrics.counter("plan_compilations") == len(queries)


class TestStats:
    def test_stats_snapshot_shape(self, service):
        service.cite(QUERY)
        service.cite(QUERY)
        stats = service.stats()
        assert stats["counters"]["requests"] == 2
        assert stats["counters"]["result_cache_hits"] == 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["plan_cache"]["size"] == 1
        assert stats["engine"]["citation_views"] == 6
        assert "request" in stats["latency_ms"]
        snapshot = stats["latency_ms"]["request"]
        assert snapshot["count"] == 2
        assert snapshot["max_ms"] >= snapshot["min_ms"] >= 0.0

    def test_mutations_observed_counter(self, service, db):
        db.insert("Ligand", (9100, "Ligand-X", "peptide"))
        assert service.metrics.counter("mutations_observed") == 1

    def test_close_detaches_mutation_listener(self, engine, db):
        service = CitationService(engine)
        service.close()
        db.insert("Ligand", (9101, "Ligand-Y", "peptide"))
        assert service.metrics.counter("mutations_observed") == 0


class TestGenerationTracking:
    def test_generation_counts_applied_changes_only(self, db):
        start = db.generation
        assert db.insert("Ligand", (9200, "L", "peptide"))
        assert not db.insert("Ligand", (9200, "L", "peptide"))  # duplicate: no-op
        assert db.generation == start + 1
        assert db.delete("Ligand", (9200, "L", "peptide"))
        assert db.generation == start + 2

    def test_mutation_listeners_fire_and_detach(self, db):
        seen = []
        listener = lambda kind, relation, row: seen.append((kind, relation))
        db.add_mutation_listener(listener)
        db.insert("Ligand", (9201, "L", "peptide"))
        db.remove_mutation_listener(listener)
        db.delete("Ligand", (9201, "L", "peptide"))
        assert seen == [("insert", "Ligand")]


class TestIncrementalHooks:
    def test_maintainer_notifies_listeners(self):
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        events = []
        maintainer.add_change_listener(lambda relation, kind: events.append((relation, kind)))
        maintainer.insert("Family", (50, "Maintained family", "d"))
        maintainer.insert("FamilyIntro", (50, "intro"))
        maintainer.insert("Ligand", (50, "L", "peptide"))
        maintainer.insert("Committee", (50, "New curator"))
        kinds = [kind for _relation, kind in events]
        assert kinds[:2] == ["answer", "answer"]
        assert "ignored" in kinds and "records" in kinds
        maintainer.check_consistency()

    def test_maintainer_consistent_with_generation_aware_caches(self):
        engine = CitationEngine(
            gtopdb.paper_instance(),
            gtopdb.citation_views(),
            policy=CitationPolicy.union_everywhere(),
        )
        maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
        maintainer.insert("Family", (60, "Calcitonin", "dup-name"))
        maintainer.insert("FamilyIntro", (60, "intro"))
        maintainer.delete("FamilyIntro", (11, "1st"))
        maintainer.check_consistency()


class TestCompiledProgramsThroughThePlanCache:
    def test_plan_hit_carries_compiled_programs(self, service):
        query = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        service.cite(query)  # cold: compiles the plan and, on execute, the programs
        plan, hit = service.plan_for(query)
        assert hit
        assert plan.rewritings  # a real plan, not a fallback
        programs = [plan.compiled(i) for i in range(len(plan.rewritings))]
        assert all(program is not None for program in programs)
        # A structurally identical (renamed) query hits the same plan, so it
        # reuses the same compiled join programs.
        renamed = "Q(N) :- FamilyIntro(F, T), Family(F, N, D)"
        twin, twin_hit = service.plan_for(renamed)
        assert twin_hit and twin is plan


class TestEvaluationMetricsExposure:
    def test_stats_expose_evaluation_metrics(self, service):
        service.cite(QUERY)
        service.cite(QUERY)
        evaluation = service.stats()["evaluation"]
        assert set(evaluation) == {"evaluations", "mean_ms", "tracked_queries"}
        # First call executes, the repeat is a result-cache hit: at least
        # one evaluation was recorded (one per rewriting).
        assert evaluation["evaluations"] >= 1
        assert evaluation["tracked_queries"] >= 1

    def test_stats_are_json_serialisable_with_evaluation_block(self, service):
        import json

        service.cite(QUERY)
        payload = json.loads(json.dumps(service.stats(), sort_keys=True))
        assert payload["evaluation"]["evaluations"] >= 1
