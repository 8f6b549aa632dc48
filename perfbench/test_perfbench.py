"""Self-tests of the benchmark: seeded inputs, the answer checker, metric names.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

import bench
import check
import run
import workloads
from repro import CitationEngine, CitationRequest, CitationService
from repro.workloads import gtopdb

ROOT = Path(__file__).resolve().parent.parent


def _prefix(workload: str, seed: int, n: int = 60) -> list:
    database = workloads.instance(seed)
    return list(itertools.islice(workloads.stream(workload, seed, database), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_stream(workload):
    assert _prefix(workload, 5) == _prefix(workload, 5)


def test_different_seeds_give_different_constants():
    explore = [op.query for op in _prefix("explore", 5)], [op.query for op in _prefix("explore", 6)]
    assert explore[0] != explore[1]
    churn = [
        [op.inserts for op in _prefix(workload, seed) if isinstance(op, workloads.Write)]
        for workload, seed in (("churn", 5), ("churn", 6))
    ]
    assert churn[0] != churn[1]
    hot = [(op.query, op.fmt) for op in _prefix("hot", 5)], [(op.query, op.fmt) for op in _prefix("hot", 6)]
    assert hot[0] != hot[1]


def test_streams_have_their_stated_mix():
    database = workloads.instance(1)
    churn = list(itertools.islice(workloads.stream("churn", 1, database), 500))
    writes = sum(isinstance(op, workloads.Write) for op in churn)
    assert writes * workloads.CHURN_READS_PER_WRITE == len(churn) - writes
    explore = list(itertools.islice(workloads.stream("explore", 1, database), 500))
    assert len({op.query for op in explore}) > 0.95 * len(explore)
    assert sum(op.source == workloads.UNION_TEMPLATE for op in explore) == 100


def test_writes_replace_their_own_rows_and_keep_the_instance():
    database = workloads.instance(1)
    before = database.sizes()
    writes = workloads.write_stream(1, database)
    for write in itertools.islice(writes, 7):
        write.apply(database)
    after = database.sizes()
    grown = {name: after[name] - before[name] for name in before}
    assert grown == {
        "Family": 1, "FamilyIntro": 1, "Target": 1, "Contributor": 2,
        "Committee": 0, "Interaction": 0, "Ligand": 0,
    }


def _served(database, read):
    service = CitationService(CitationEngine(database, gtopdb.citation_views(extended=True)))
    response, text = bench.serve(service, read)
    service.close()
    return check.Observation(read, check.canonical_rows(response.result.result.rows), text)


def test_checker_accepts_a_correct_answer_and_flags_a_tampered_citation():
    database = workloads.instance(1)
    read = workloads.Read(
        "Q5(TName, FName) :- Target(TID, FID, TName, Type), Family(FID, FName, Desc)",
        "economical", "bibtex", 0,
    )
    served = _served(database, read)
    assert check.verify(served, database.copy()) is None
    tampered = check.Observation(read, served.rows, served.text.replace("Target-7", "Target-8", 1))
    assert "citation differs" in check.verify(tampered, database.copy())
    dropped = check.Observation(read, served.rows[1:], served.text)
    assert "rows differ" in check.verify(dropped, database.copy())


@pytest.mark.xfail(
    strict=True,
    reason="the symbolic expression of a result-cache hit keeps the atom order of the "
    "query that filled the cache, so an atom-reordered variant's JSON citation "
    "depends on cache history",
)
def test_atom_reordered_variant_served_from_cache_matches_reference():
    database = workloads.instance(1)
    query = gtopdb.paper_query()
    reordered = query.rename_apart("_r")
    reordered = reordered.with_body(tuple(reversed(reordered.body)))
    service = CitationService(CitationEngine(database, gtopdb.citation_views(extended=True)))
    service.submit(CitationRequest(query=str(query), mode="formal")).unwrap()
    read = workloads.Read(str(reordered), "formal", "json", 0)
    response, text = bench.serve(service, read)
    service.close()
    assert response.cached
    served = check.Observation(read, check.canonical_rows(response.result.result.rows), text)
    assert check.verify(served, database.copy()) is None


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "SETUPS", 1)
    code = run.main(["--workload", "explore", "--seed", "3", "--seconds", "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in expected:
        assert any(line.startswith(f"# {metric['name']} = ") for line in lines)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_every_wrapped_function():
    database = workloads.instance(1)
    engine = CitationEngine(database, gtopdb.citation_views(extended=True))
    tracer = bench.Tracer()
    owners = {(owner, attribute): owner.__dict__.get(attribute) for _, owner, attribute, _ in tracer._targets}
    policy = engine.policy
    tracer.install(engine)
    assert engine.policy is not policy
    tracer.uninstall()
    assert engine.policy is policy
    assert {(o, a): o.__dict__.get(a) for o, a in owners} == owners
    assert not tracer.absent
