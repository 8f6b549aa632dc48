"""Tests for cost-based rewriting selection."""

import pytest

from repro.core.rewriting_selector import RewritingSelector
from repro.errors import PolicyError
from repro.query.parser import parse_query
from repro.relational.relation import Relation
from repro.rewriting.minicon import MiniConRewriter
from repro.core.citation_view import views_of
from repro.workloads import gtopdb


@pytest.fixture
def db():
    return gtopdb.paper_instance()


@pytest.fixture
def rewritings(db):
    views = views_of(gtopdb.citation_views())
    query = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
    return MiniConRewriter(views).rewrite(query)


def _views_used(rewriting):
    return {atom.predicate for atom in rewriting.query.body}


class TestStrategies:
    def test_all_keeps_everything(self, db, rewritings):
        selector = RewritingSelector(db, strategy="all")
        assert selector.select(rewritings) == list(rewritings)

    def test_min_citation_size_picks_unparameterized(self, db, rewritings):
        selector = RewritingSelector(db, strategy="min_citation_size", keep=1)
        selected = selector.select(rewritings)
        assert len(selected) == 1
        assert "V2" in _views_used(selected[0])

    def test_min_evaluation_cost(self, db, rewritings):
        selector = RewritingSelector(db, strategy="min_evaluation_cost", keep=1)
        assert len(selector.select(rewritings)) == 1

    def test_prefer_unparameterized(self, db, rewritings):
        selector = RewritingSelector(db, strategy="prefer_unparameterized")
        selected = selector.select(rewritings)
        assert all(not r.uses_parameterized_view() for r in selected)

    def test_prefer_unparameterized_falls_back(self, db):
        views = views_of([gtopdb.citation_views()[0], gtopdb.citation_views()[2]])  # V1, V3 only
        query = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
        rewritings = MiniConRewriter(views).rewrite(query)
        selector = RewritingSelector(db, strategy="prefer_unparameterized")
        assert selector.select(rewritings)  # falls back to the parameterized one

    def test_keep_is_at_least_one(self, db, rewritings):
        selector = RewritingSelector(db, strategy="min_citation_size", keep=0)
        assert len(selector.select(rewritings)) == 1

    def test_empty_input(self, db):
        assert RewritingSelector(db).select([]) == []

    def test_unknown_strategy(self, db, rewritings):
        selector = RewritingSelector(db, strategy="nope")  # type: ignore[arg-type]
        with pytest.raises(PolicyError):
            selector.select(rewritings)


class TestDescribe:
    def test_describe_reports_costs(self, db, rewritings):
        rows = RewritingSelector(db).describe(rewritings)
        assert len(rows) == len(rewritings)
        assert {"rewriting", "views", "evaluation_cost", "citation_size", "parameterized"} <= set(
            rows[0]
        )
        assert rows[0]["citation_size"] <= rows[-1]["citation_size"]


class TestStatisticsReuse:
    """Distinct parameter values come from the cost model's version-stamped
    statistics catalog, so repeated selection scans nothing new."""

    @pytest.fixture
    def counted_scans(self, monkeypatch):
        scans = []
        original = Relation.project_positions

        def counting(self, positions):
            scans.append(self.schema.name)
            return original(self, positions)

        monkeypatch.setattr(Relation, "project_positions", counting)
        return scans

    def test_unchanged_data_is_scanned_once_and_a_write_rescans_its_relation(
        self, counted_scans
    ):
        database = gtopdb.generate(families=20, seed=3)
        views = views_of(gtopdb.citation_views(extended=True))
        rewriter = MiniConRewriter(views)
        rewritings = [
            rewriting
            for query in gtopdb.example_queries()
            for rewriting in rewriter.rewrite(query)
        ]
        selector = RewritingSelector(database, strategy="min_citation_size", keep=1)
        first = selector.select(rewritings)
        assert {"Family", "Target"} <= set(counted_scans)

        counted_scans.clear()
        assert selector.select(rewritings) == first
        assert counted_scans == []

        database.insert("Family", (10_000, "Fresh family", "d"))
        selector.select(rewritings)
        assert counted_scans and set(counted_scans) == {"Family"}
