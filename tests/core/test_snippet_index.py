"""The engine's per-view snippet indexes: one evaluation per citation query.

A record miss slices the view's snippet index; the index is built on the
view's first miss of a database generation and dropped with the records on
the next write or forced invalidation.  Counting the evaluator calls made
from :mod:`repro.core.citation_view` pins the cost without timing anything:
a per-valuation evaluation would make one call per citation query and
record (thousands for ``Q5`` on a few hundred families).
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import CitationEngine
from repro.query.evaluator import QueryEvaluator
from repro.workloads import gtopdb


@pytest.fixture
def snippet_evaluations(monkeypatch):
    """Citation query name -> evaluator calls made from the citation view module."""
    calls: Counter[str] = Counter()
    original = QueryEvaluator.evaluate

    def counting(self, query, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "repro.core.citation_view":
            calls[query.name] += 1
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(QueryEvaluator, "evaluate", counting)
    return calls


@pytest.fixture
def engine():
    database = gtopdb.generate(families=40, targets_per_family=3, ligands=20, seed=5)
    return CitationEngine(database, gtopdb.citation_views(extended=True), mode="formal")


Q5 = gtopdb.example_queries()[4]
V1_V4_QUERIES = ("CV1", "CV1name", "CV4", "CV4name")


def _cite_records(engine: CitationEngine) -> int:
    result = engine.cite(Q5)
    return sum(len(tc.records) for tc in result.tuple_citations)


def test_cold_cite_evaluates_each_citation_query_once(engine, snippet_evaluations):
    assert _cite_records(engine) > 100
    assert {name: snippet_evaluations[name] for name in V1_V4_QUERIES} == dict.fromkeys(
        V1_V4_QUERIES, 1
    )
    assert max(snippet_evaluations.values()) == 1


def test_first_read_after_a_write_evaluates_each_citation_query_once(
    engine, snippet_evaluations
):
    _cite_records(engine)
    engine.database.insert("Committee", (1, "W. Writer"))
    snippet_evaluations.clear()
    _cite_records(engine)
    assert max(snippet_evaluations.values()) == 1
    assert set(V1_V4_QUERIES) <= set(snippet_evaluations)


def test_warm_records_evaluate_nothing(engine, snippet_evaluations):
    _cite_records(engine)
    snippet_evaluations.clear()
    _cite_records(engine)
    assert not snippet_evaluations


def test_one_index_per_view_dropped_on_write_and_invalidation(engine):
    _cite_records(engine)
    assert set(engine._snippet_indexes) >= {"V1", "V4"}
    index = engine._snippet_indexes["V1"]
    engine.citation_record("V1", {"FID": 1})
    assert engine._snippet_indexes["V1"] is index
    engine.database.insert("Committee", (1, "W. Writer"))
    record = engine.citation_record("V1", {"FID": 1})
    assert "W. Writer" in record["contributors"]
    assert set(engine._snippet_indexes) == {"V1"}
    assert engine._snippet_indexes["V1"] is not index
    engine.invalidate_caches()
    assert not engine._snippet_indexes
