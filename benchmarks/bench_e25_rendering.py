"""E25 — rendering a large citation: cold, warm and renamed variant.

A result-cache hit on the GtoPdb ``Q5`` query returns a citation of one
record per target (about 1200 on 300 families).  Records and expressions
are immutable, so each record keeps its sort key and its rendered fragments
and the aggregate expression keeps its text: the first render of a record
pays for them, later renders of any citation sharing the record reuse them.

For each format the experiment cites ``Q5`` on a fresh engine and renders
its citation three times:

* **cold** — the first render of fresh records;
* **warm** — the same citation again;
* **renamed** — the citation served for an alpha-renamed variant of ``Q5``
  (a result-cache hit that shares the records and expression).

It prints absolute milliseconds with the CPU count.  The gate is on
deterministic counts, not time: a warm or renamed render computes no sort
key and no record fragment, and a cold render computes each exactly once per
record.  Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the instance.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import pytest

from repro import CitationEngine, CitationService
from repro.api.envelope import CitationRequest
from repro.core import record as record_module
from repro.core.record import FRAGMENT_FORMATS, CitationRecord
from repro.workloads import gtopdb
from benchmarks.conftest import record_json, report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FAMILIES = 60 if SMOKE else 300
WARM_ROUNDS = 3 if SMOKE else 7
FORMATS = ("text", "bibtex", "ris", "json", "xml", "csl_json")

Q5 = next(query for query in gtopdb.example_queries() if query.name == "Q5")


@pytest.fixture
def counts(monkeypatch):
    """Sort keys and record fragments computed, counted at their only sources."""
    counted: Counter[str] = Counter()
    canonical_key = record_module.canonical_key
    fragment = CitationRecord.fragment

    def counting_key(fields):
        counted["sort_keys"] += 1
        return canonical_key(fields)

    def counting_fragment(self, fmt, render):
        def counted_render(record):
            counted["fragments"] += 1
            return render(record)

        return fragment(self, fmt, counted_render)

    monkeypatch.setattr(record_module, "canonical_key", counting_key)
    monkeypatch.setattr(CitationRecord, "fragment", counting_fragment)
    return counted


def _render(citation, fmt: str, counts: Counter, rounds: int = 1) -> tuple[float, dict]:
    """Best-of-*rounds* milliseconds, and the work the last round computed."""
    best = float("inf")
    for _ in range(rounds):
        counts.clear()
        started = time.perf_counter()
        getattr(citation, f"to_{fmt}")()
        best = min(best, time.perf_counter() - started)
    return best * 1000, dict(counts)


def test_e25_rerenders_reuse_record_fragments(counts):
    database = gtopdb.generate(families=FAMILIES, seed=7)
    rows = []
    for fmt in FORMATS:
        service = CitationService(
            CitationEngine(database, gtopdb.citation_views(extended=True))
        )
        try:
            cited = service.submit(CitationRequest(query=str(Q5)))
            variant = service.submit(CitationRequest(query=str(Q5.rename_apart("_1"))))
        finally:
            service.close()
        assert cited.ok and variant.ok and variant.cached
        assert variant.citation.records is cited.citation.records
        records = cited.citation.record_count()
        cold_ms, cold = _render(cited.citation, fmt, counts)
        warm_ms, warm = _render(cited.citation, fmt, counts, WARM_ROUNDS)
        renamed_ms, renamed = _render(variant.citation, fmt, counts, WARM_ROUNDS)
        rows.append(
            {
                "format": fmt,
                "records": records,
                "cold_ms": round(cold_ms, 2),
                "warm_ms": round(warm_ms, 2),
                "renamed_ms": round(renamed_ms, 2),
                "cold_sort_keys": cold.get("sort_keys", 0),
                "cold_fragments": cold.get("fragments", 0),
            }
        )
        memoised = fmt in FRAGMENT_FORMATS
        assert cold.get("sort_keys", 0) == records
        assert cold.get("fragments", 0) == (records if memoised else 0)
        assert warm == {} and renamed == {}, f"{fmt}: a re-render recomputed {warm or renamed}"

    report(f"E25: rendering the Q5 citation ({os.cpu_count()} CPUs)", rows)
    record_json("e25", rows, cpus=os.cpu_count(), families=FAMILIES)
