"""Race-stress harness: concurrent serving under live writes (``-m race``).

Two suites.  :class:`TestServiceUnderChurn` drives ``submit_batch`` from
many threads while a writer thread inserts and deletes rows — bumping the
database generation, invalidating plan/result caches mid-flight — and then
audits the aftermath: no lost requests (the metrics counters balance
exactly), no cross-request plan corruption (every plan in sight passes the
IR verifier), stable answers (the churned relation feeds none of the
queries).  :class:`TestEngineCacheRaces` is the regression suite for the
engine and plan caches: tiny cache caps plus many distinct query shapes
force concurrent eviction, which without ``_analysis_lock`` raced
destructively (``RuntimeError: dictionary changed size during iteration``,
lost stats updates), threads racing on one cold plan must all adopt one
identity-paired set of compiled artifacts, and threads racing on a view's
cold citation records after a write must all adopt one snippet index.

CI runs this module as its own step (``pytest -m race``); the tier-1 run
deselects it.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.engine as engine_module
from repro import CitationEngine, CitationRequest, parse_query
from repro.core.citation_view import CitationView
from repro.query.evaluator import QueryEvaluator
from repro.service.service import CitationService
from repro.workloads import gtopdb

pytestmark = pytest.mark.race

THREADS = 8
BATCHES_PER_THREAD = 12

#: Queries over Family / FamilyIntro only.  The writer churns Ligand, which
#: neither the queries nor the (non-extended) views V1–V3 ever read — the
#: in-memory store has no reader/writer isolation per relation, so reading
#: a relation *while* mutating it is out of contract.  Churning an unread
#: relation still bumps the database generation on every op, invalidating
#: plan tokens, result-cache entries and materialised views mid-flight,
#: which is the contention the harness is after.
QUERIES = [
    "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q2(FID, Text) :- FamilyIntro(FID, Text)",
    "Q3(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
    "Q4(FID) :- Family(FID, FName, Desc)",
]


def _requests(queries):
    """Relational-backend requests for *queries*, one each."""
    return [CitationRequest(query=query, backend="relational") for query in queries]


@pytest.fixture
def database():
    return gtopdb.generate(
        families=12, targets_per_family=2, ligands=20, seed=7
    )


@pytest.fixture
def engine(database):
    return CitationEngine(database, gtopdb.citation_views())


class TestServiceUnderChurn:
    def test_submit_batch_with_writer_churn(self, database, engine):
        with CitationService(engine, max_workers=THREADS) as service:
            expected = {
                query: frozenset(engine.cite(query).result.rows) for query in QUERIES
            }
            stop = threading.Event()
            writer_ops = 0

            def churn():
                nonlocal writer_ops
                row_id = 100_000
                while not stop.is_set():
                    database.insert("Ligand", (row_id, f"L{row_id}", "synthetic"))
                    writer_ops += 1
                    if row_id % 3 == 0:
                        database.delete("Ligand", (row_id, f"L{row_id}", "synthetic"))
                        writer_ops += 1
                    row_id += 1

            writer = threading.Thread(target=churn)
            writer.start()
            try:
                batches = []
                with ThreadPoolExecutor(max_workers=THREADS) as pool:
                    futures = [
                        pool.submit(
                            service.submit_batch,
                            _requests(QUERIES),  # no intra-batch dedup: distinct shapes
                        )
                        for _ in range(THREADS * BATCHES_PER_THREAD)
                    ]
                    for future in futures:
                        batches.append(future.result(timeout=120))
            finally:
                stop.set()
                writer.join(timeout=30)
            assert not writer.is_alive()
            assert writer_ops > 0

            # 1. No lost or broken responses: every request answered, correctly.
            assert len(batches) == THREADS * BATCHES_PER_THREAD
            for responses in batches:
                assert len(responses) == len(QUERIES)
                for query, response in zip(QUERIES, responses):
                    assert response.error is None, repr(response.error)
                    assert frozenset(response.result.result.rows) == expected[query]

            # 2. Metric conservation: the served counters balance exactly.
            counters = service.metrics.stats()["counters"]
            total = THREADS * BATCHES_PER_THREAD * len(QUERIES)
            assert counters["requests"] == total
            assert counters["errors"] == 0
            assert counters["timeouts"] == 0
            assert (
                counters["executions"]
                + counters["result_cache_hits"]
                + counters["deduplicated"]
                == total
            )
            assert counters["batch_requests"] == THREADS * BATCHES_PER_THREAD
            # Every writer op was observed by the mutation listener.
            assert counters["mutations_observed"] == writer_ops

            # 3. No cross-request plan corruption: everything compiled during
            # the stampede — plans and their programs — still passes the IR
            # verifier.
            for query in QUERIES:
                plan = engine.compile_plan(parse_query(query))
                engine.execute_plan(plan)
                report = engine.verify_plan(plan)
                assert not list(report), report.to_text()
            stats = engine.analysis_stats()
            assert stats["verify_violations"] == 0
            assert stats["plans_verified"] >= len(QUERIES)


class TestEngineCacheRaces:
    """Regression: the engine and plan caches under concurrent misses."""

    def test_concurrent_submit_batch_with_tiny_caches(self, database, monkeypatch):
        monkeypatch.setattr(engine_module, "_ANALYSIS_CACHE_LIMIT", 4)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))

        # Distinct head predicates make distinct cache keys: every shape
        # compiles, analyzes and (at the tiny caps) evicts concurrently.
        shapes = [
            f"Q{i}(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, T)"
            for i in range(24)
        ] + [
            f"P{i}(FID, Text) :- FamilyIntro(FID, Text)" for i in range(24)
        ]
        reference = {shape: engine.cite(shape).result.rows for shape in shapes[:4]}

        with CitationService(engine, plan_cache_size=3, max_workers=THREADS) as service:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [
                    pool.submit(service.submit_batch, _requests(shapes))
                    for _ in range(THREADS)
                ]
                results = [future.result(timeout=120) for future in futures]
            # The plan cache honoured its cap under concurrency.
            assert len(service.plan_cache) <= 3

        for responses in results:
            assert len(responses) == len(shapes)
            for response in responses:
                assert response.error is None, repr(response.error)
        for shape, rows in reference.items():
            assert engine.cite(shape).result.rows == rows
        # The analysis cache honoured its (patched) cap under concurrency.
        assert len(engine._analysis_cache) <= 4
        assert engine.analysis_stats()["verify_violations"] == 0

    def test_concurrent_cold_plan_execution_stays_identity_paired(
        self, database, monkeypatch
    ):
        # verify_plans="off" keeps the plan cold until its first execution.
        engine = CitationEngine(
            database, gtopdb.citation_views(extended=True), verify_plans="off"
        )
        query = "Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        reference = engine.cite(query).result.rows
        plan = engine.compile_plan(parse_query(query))
        assert plan.rewritings and plan.compiled(0) is None

        # A slow compile makes every thread miss the cold plan and build its
        # own entry, so the setdefault publish is what makes them all adopt
        # the first one.
        compiles: list[object] = []
        used: list[tuple] = []
        original_compile = QueryEvaluator.compile
        original_evaluate = QueryEvaluator.evaluate_with_bindings

        def slow_compile(self, rewriting_query):
            program = original_compile(self, rewriting_query)
            compiles.append(program)
            time.sleep(0.02)
            return program

        def recording_evaluate(self, rewriting_query, **held):
            used.append((rewriting_query, held["program"]))
            return original_evaluate(self, rewriting_query, **held)

        monkeypatch.setattr(QueryEvaluator, "compile", slow_compile)
        monkeypatch.setattr(QueryEvaluator, "evaluate_with_bindings", recording_evaluate)
        start = threading.Barrier(THREADS)

        def execute():
            start.wait(timeout=30)
            return engine.execute_plan(plan).result.rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(execute) for _ in range(THREADS)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)

        assert all(rows == reference for rows in results)
        assert len(compiles) > len(plan.rewritings)  # the threads really raced
        entries = {
            rewriting.query: plan.compiled(position)
            for position, rewriting in enumerate(plan.rewritings)
        }
        # Every execution ran on the published program, not on its own build.
        assert len(used) == THREADS * len(plan.rewritings)
        for rewriting_query, program in used:
            assert program is entries[rewriting_query]
        assert not list(engine.verify_plan(plan))

    def test_concurrent_cold_records_after_a_write_adopt_one_index_per_view(
        self, database, monkeypatch
    ):
        views = gtopdb.citation_views(extended=True)
        engine = CitationEngine(database, views)
        query = gtopdb.example_queries()[4]  # Q5: one record per family and target
        engine.cite(query)
        # The write makes every record and snippet index stale.
        database.insert("Committee", (min(database.relation("Family").rows)[0], "R. Racer"))
        expected = CitationEngine(database, gtopdb.citation_views(extended=True)).cite(query)
        expected_records = {tc.row: repr(tc.records) for tc in expected.tuple_citations}

        # A slow build makes every thread miss the cold index and build its
        # own, so the setdefault publish is what makes them all adopt one.
        builds: list[tuple[str, object]] = []
        original_index = CitationView.snippet_index

        def slow_index(self, snippet_database):
            index = original_index(self, snippet_database)
            builds.append((self.name, index))
            time.sleep(0.02)
            return index

        monkeypatch.setattr(CitationView, "snippet_index", slow_index)
        start = threading.Barrier(THREADS)

        def cite():
            start.wait(timeout=30)
            return engine.cite(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(cite) for _ in range(THREADS)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)

        for result in results:
            assert {tc.row: repr(tc.records) for tc in result.tuple_citations} == (
                expected_records
            )
            assert result.citation.to_json() == expected.citation.to_json()
        published = engine._snippet_indexes
        assert set(published) == {name for name, _ in builds} >= {"V1", "V4"}
        assert len(builds) > len(published)  # the threads really raced
        for name, index in published.items():
            assert any(built is index for built_name, built in builds if built_name == name)
