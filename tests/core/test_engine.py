"""Tests for the citation engine (the paper's Definitions 2.1 and 2.2)."""

import pytest

from repro import CitationEngine, CitationPolicy, parse_query
from repro.core.record import CitationRecord
from repro.core.rewriting_selector import RewritingSelector
from repro.errors import CitationError, NoRewritingError
from repro.query.evaluator import evaluate
from repro.relational.database import Database
from repro.workloads import gtopdb


class TestRewritings:
    def test_paper_query_has_two_rewritings(self, paper_engine, paper_query):
        rewritings = paper_engine.rewritings(paper_query)
        used = {frozenset(a.predicate for a in r.query.body) for r in rewritings}
        assert used == {frozenset({"V1", "V3"}), frozenset({"V2", "V3"})}

    def test_bucket_backend_gives_same_rewritings(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(paper_db, paper_views, rewriter="bucket")
        assert len(engine.rewritings(paper_query)) == 2

    def test_accepts_query_text(self, paper_engine):
        rewritings = paper_engine.rewritings(
            "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        )
        assert len(rewritings) == 2


class TestCitationRecords:
    def test_record_cache_reuses_objects(self, paper_engine):
        first = paper_engine.citation_record("V1", {"FID": 11})
        second = paper_engine.citation_record("V1", {"FID": 11})
        assert first is second

    def test_unknown_view_raises(self, paper_engine):
        with pytest.raises(CitationError):
            paper_engine.citation_record("V999", {})

    def test_invalidate_caches_clears_records(self, paper_engine):
        first = paper_engine.citation_record("V1", {"FID": 11})
        paper_engine.invalidate_caches()
        assert paper_engine.citation_record("V1", {"FID": 11}) is not first


class TestGenerationReads:
    """One plan execution reads ``Database.generation`` a fixed number of
    times; record lookups during assembly do not re-derive it (each read
    scans every relation's version)."""

    @staticmethod
    def _reads_during_cold_q5(monkeypatch, families: int) -> tuple[int, int]:
        database = gtopdb.generate(families=families, targets_per_family=3, ligands=20, seed=5)
        engine = CitationEngine(database, gtopdb.citation_views(extended=True), mode="formal")
        plan = engine.compile_plan(gtopdb.example_queries()[4])
        reads = 0
        original = Database.generation

        def counting(self):
            nonlocal reads
            reads += 1
            return original.fget(self)

        monkeypatch.setattr(Database, "generation", property(counting))
        result = engine.execute_plan(plan)
        monkeypatch.setattr(Database, "generation", original)
        bindings = sum(len(tc.records) for tc in result.tuple_citations)
        return reads, bindings

    def test_reads_are_a_small_constant(self, monkeypatch):
        small_reads, small_bindings = self._reads_during_cold_q5(monkeypatch, 10)
        large_reads, large_bindings = self._reads_during_cold_q5(monkeypatch, 40)
        assert large_bindings > 3 * small_bindings
        assert small_reads == large_reads <= 2

    def test_public_record_lookup_still_sees_writes(self, paper_engine, paper_db):
        before = paper_engine.citation_record("V1", {"FID": 11})
        paper_db.insert("Committee", (11, "A. Latecomer"))
        after = paper_engine.citation_record("V1", {"FID": 11})
        assert after is not before
        assert "A. Latecomer" in repr(after)


class TestCite:
    def test_result_matches_direct_evaluation(self, paper_engine, paper_query, paper_db):
        result = paper_engine.cite(paper_query)
        direct = evaluate(paper_query, paper_db)
        assert result.result.rows == direct.rows

    def test_per_tuple_expressions_match_paper(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        expressions = {tc.row: str(tc.expression) for tc in result.tuple_citations}
        assert expressions[("Calcitonin",)] == (
            "((CV1(11)·CV3) + (CV1(12)·CV3)) +R (CV2·CV3)"
        )
        assert expressions[("Adenosine",)] == "(CV1(13)·CV3) +R (CV2·CV3)"

    def test_default_policy_selects_v2_citation(self, paper_engine, paper_query):
        # Final step of the paper's example: with union for ·/+/Agg and
        # min-estimated-size for +R, the citation through Q2 (V2·V3) wins.
        result = paper_engine.cite(paper_query)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V2", "V3"}

    def test_union_policy_keeps_committee_citations(self, paper_db, paper_views, paper_query):
        engine = CitationEngine(
            paper_db, paper_views, policy=CitationPolicy.union_everywhere()
        )
        result = engine.cite(paper_query)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V1", "V2", "V3"}
        contributors = set()
        for record in result.citation.records:
            if "contributors" not in record:
                continue
            value = record["contributors"]
            contributors.update(value if isinstance(value, tuple) else (value,))
        assert {"D. Hoyer", "A. Davenport", "S. Alexander"} <= contributors

    def test_citation_for_row_lookup(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        tc = result.citation_for(("Calcitonin",))
        assert tc.row == ("Calcitonin",)
        with pytest.raises(CitationError):
            result.citation_for(("Nope",))

    def test_tuple_citation_wrapper(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query)
        citation = result.citation_for(("Adenosine",)).citation()
        assert citation.record_count() >= 1
        assert citation.size() == result.citation_for(("Adenosine",)).size()

    def test_economical_mode_uses_single_rewriting(self, paper_engine, paper_query):
        result = paper_engine.cite(paper_query, mode="economical")
        assert len(result.rewritings) == 1
        assert all("+R" not in str(tc.expression) for tc in result.tuple_citations)
        views_cited = {record["view"] for record in result.citation.records}
        assert views_cited == {"V2", "V3"}

    def test_formal_and_economical_agree_on_answer(self, paper_engine, paper_query):
        formal = paper_engine.cite(paper_query, mode="formal")
        economical = paper_engine.cite(paper_query, mode="economical")
        assert formal.result.rows == economical.result.rows

    def test_identity_query_over_family(self, paper_engine):
        result = paper_engine.cite("Q(FID, FName, Desc) :- Family(FID, FName, Desc)")
        assert len(result) == 3
        # Both V1 and V2 rewrite the query; the default policy keeps the small one.
        assert {r["view"] for r in result.citation.records} == {"V2"}

    def test_parameterized_citation_per_family(self, paper_db, paper_views):
        engine = CitationEngine(
            paper_db,
            paper_views,
            policy=CitationPolicy.union_everywhere(),
            selector=RewritingSelector(paper_db, strategy="all"),
        )
        result = engine.cite("Q(FID, FName, Desc) :- Family(FID, FName, Desc)")
        tc = result.citation_for((11, "Calcitonin", "C1"))
        parameterized = [r for r in tc.records if "parameters" in r]
        assert any(r["parameters"] == (("FID", 11),) for r in parameterized)

    def test_aggregate_size_nondecreasing_in_tuples(self, paper_engine):
        small = paper_engine.cite("Q(FName) :- Family(11, FName, Desc), FamilyIntro(11, Text)")
        large = paper_engine.cite("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
        assert large.citation.size() >= small.citation.size()


class TestNoRewriting:
    def test_error_mode(self, paper_engine):
        with pytest.raises(NoRewritingError):
            paper_engine.cite("Q(PName) :- Committee(FID, PName)")

    def test_fallback_mode(self, paper_db, paper_views):
        fallback = CitationRecord({"title": "GtoPdb (whole database)"})
        engine = CitationEngine(
            paper_db, paper_views, on_no_rewriting="fallback", fallback_citation=fallback
        )
        result = engine.cite("Q(PName) :- Committee(FID, PName)")
        assert result.used_fallback
        assert result.citation.records == frozenset({fallback})
        assert len(result) == 4  # committee rows are still returned

    def test_fallback_without_custom_record(self, paper_db, paper_views):
        engine = CitationEngine(paper_db, paper_views, on_no_rewriting="fallback")
        result = engine.cite("Q(PName) :- Committee(FID, PName)")
        assert result.citation.record_count() == 1


class TestValidation:
    def test_engine_requires_views(self, paper_db):
        with pytest.raises(CitationError):
            CitationEngine(paper_db, [])

    def test_duplicate_view_names_rejected(self, paper_db, paper_views):
        with pytest.raises(CitationError):
            CitationEngine(paper_db, paper_views + [paper_views[0]])

    @pytest.mark.parametrize("strategy", ["cost", "parallel", "bogus"])
    def test_unknown_strategy_rejected_at_construction(
        self, paper_db, paper_views, strategy
    ):
        # There is one join executor and no strategy knob to pass.
        with pytest.raises(TypeError, match="strategy"):
            CitationEngine(paper_db, paper_views, strategy=strategy)

    def test_rewriting_with_uncovered_view_rejected(self, paper_engine, paper_views):
        # Build a rewriting that mentions a view the engine does not know.
        from repro.rewriting.rewriting import Rewriting
        from repro.rewriting.view import View

        stray_view = View(parse_query("VX(FID, Text) :- FamilyIntro(FID, Text)"))
        rewriting = Rewriting(parse_query("Q(FID, Text) :- VX(FID, Text)"), [stray_view])
        with pytest.raises(CitationError):
            paper_engine.citation_for_binding(rewriting, {})


class TestCompiledJoinPrograms:
    def test_execute_attaches_programs_to_the_plan(self, paper_db, paper_views, paper_query):
        # verify_plans="off": with verification on (the suite default) the
        # verifier compiles programs eagerly, which is exactly the laziness
        # this test pins down for the production default.
        engine = CitationEngine(paper_db, paper_views, verify_plans="off")
        plan = engine.compile_plan(paper_query)
        assert all(plan.compiled(i) is None for i in range(len(plan.rewritings)))
        engine.execute_plan(plan)
        assert all(
            plan.compiled(i) is not None for i in range(len(plan.rewritings))
        )

    def test_repeated_execution_reuses_the_programs(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        first = paper_engine.execute_plan(plan)
        programs = [plan.compiled(i) for i in range(len(plan.rewritings))]
        second = paper_engine.execute_plan(plan)
        assert all(plan.compiled(i) is program for i, program in enumerate(programs))
        assert first.result.rows == second.result.rows

    def test_programs_survive_data_changes(self, paper_engine, paper_query, paper_db):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        programs = [plan.compiled(i) for i in range(len(plan.rewritings))]
        paper_db.insert("Family", (60, "Fresh", "d"))
        paper_db.insert("FamilyIntro", (60, "fresh intro"))
        result = paper_engine.execute_plan(plan)
        # Same program objects, fresh data.
        assert all(plan.compiled(i) is program for i, program in enumerate(programs))
        assert ("Fresh",) in result.result.rows

    def test_plans_with_programs_stay_equal_and_hashable(self, paper_engine, paper_query):
        plan = paper_engine.compile_plan(paper_query)
        twin = paper_engine.compile_plan(paper_query)
        assert plan == twin
        paper_engine.execute_plan(plan)
        assert plan == twin  # cached programs are not part of plan identity
        assert hash(plan) == hash(twin)

    def test_view_indexes_are_shared_across_executions(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        manager = paper_engine._index_manager
        built = len(manager)
        if built:
            view_name, positions = next(iter(manager._extra))
            index = manager._extra[(view_name, positions)][0]
            paper_engine.cite(paper_query)
            assert manager._extra[(view_name, positions)][0] is index

    def test_invalidate_caches_drops_view_indexes(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        paper_engine.invalidate_caches()
        assert len(paper_engine._index_manager) == 0

    def test_evaluation_metrics_surface_on_the_engine(self, paper_engine, paper_query):
        paper_engine.cite(paper_query)
        paper_engine.cite(paper_query)
        snapshot = paper_engine.evaluation_metrics.snapshot()
        # One evaluation per rewriting per execution (two rewritings).
        assert snapshot["evaluations"] >= 4
        assert snapshot["mean_ms"] >= 0.0


class TestInvalidationClearsWarmState:
    """Regression: invalidate_caches() must retire every piece of warm state."""

    def test_invalidate_clears_the_evaluator_caches(self, paper_engine, paper_query):
        # The evaluators hold no state of their own; the statistics the
        # economical selection reads must be dropped too.
        paper_engine.cite(paper_query, mode="economical")
        statistics = paper_engine.selector.cost_model.statistics
        assert len(statistics) > 0
        paper_engine.invalidate_caches()
        assert len(statistics) == 0

    def test_results_stay_exact_across_invalidation_and_drift(
        self, paper_engine, paper_query, paper_db
    ):
        plan = paper_engine.compile_plan(paper_query)
        paper_engine.execute_plan(plan)
        paper_engine.invalidate_caches()
        paper_db.insert("Family", (98, "Post-invalidation family", "d"))
        paper_db.insert("FamilyIntro", (98, "intro"))
        served = paper_engine.execute_plan(plan)
        fresh = CitationEngine(
            paper_db, paper_engine.citation_views, policy=paper_engine.policy
        ).cite(paper_query)
        assert served.result.rows == fresh.result.rows
        assert ("Post-invalidation family",) in served.result.rows
