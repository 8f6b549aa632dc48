"""Set-up, timed loop, answer checks and report of one benchmark run."""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro import CitationEngine, CitationRequest, CitationService
from repro.relational.database import Database
from repro.workloads import gtopdb

import check
import workloads
from tracing import LAYERS, Tracer
from workloads import Read, Write

#: Instances built per run; ``setup_s`` is their median.
SETUPS = 3
#: Reads kept for checking in ``hot`` and ``explore`` (reservoir sample).
CHECKED_READS = 8
#: ``churn``: the chance that a write's first following read is checked and
#: the chance that any other read is, each with a cap.
CHECKED_WRITE_P, CHECKED_WRITES = 0.25, 6
CHECKED_CHURN_READ_P, CHECKED_CHURN_READS = 0.05, 3
#: ``hot`` and ``explore`` have no writes of their own.  So that
#: ``write_p50_ms`` is measured on every workload, their untimed runs apply
#: the ``churn`` writes to a copy of the instance served by its own idle
#: service, one after every PROBE_EVERY reads.
PROBE_EVERY = 16
#: A citation with at least this many records counts as large.
LARGE_CITATION = 500
#: Operations per block: the stream's own sampling block, plus the writes
#: interleaved with it in ``churn``.  Traced runs alternate untraced and
#: traced blocks, so both halves see the same mix.
BLOCK = {
    "hot": workloads.HOT_BLOCK,
    "explore": workloads.EXPLORE_BLOCK,
    "churn": workloads.CHURN_WINDOWS * (1 + workloads.CHURN_READS_PER_WRITE),
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "write_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATIOS = (
    "service.result_hit_ratio",
    "service.plan_hit_ratio",
    "core.record_hit_ratio",
    "trace.overhead",
)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/op"
        units[f"{layer}.calls"] = "calls/op"
    units["unattributed_ms"] = "ms/op"
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


@dataclass
class System:
    """One instance with the engine and service that serve it."""

    database: Database
    engine: CitationEngine
    service: CitationService


def serve(service: CitationService, read: Read) -> tuple[Any, str | None]:
    """Submit *read* and render its citation: the client's whole wait."""
    response = service.submit(CitationRequest(query=read.query, mode=read.mode))
    text = check.render(response.citation, read.fmt) if response.ok else None
    return response, text


def warm_up_reads(workload: str, database: Database) -> list[Read]:
    """The set-up pass: the whole ``hot`` catalog, plus each ``explore`` shape once.

    The catalog's formal queries touch every family and target, so citation
    records are warm when the timed loop starts.
    """
    reads = [
        Read(query, mode, workloads.FORMATS[i % len(workloads.FORMATS)], i)
        for i, (query, mode) in enumerate(workloads.hot_catalog())
    ]
    if workload == "explore":
        first = {
            name: min(row[0] for row in database.relation(name).rows)
            for name in ("Family", "Target", "Ligand")
        }
        for template, text in enumerate(workloads.EXPLORE_TEMPLATES):
            query = text.format(f=first["Family"], t=first["Target"], l=first["Ligand"])
            reads.extend(Read(query, mode, "text", template) for mode in workloads.MODES)
    return reads


def setup(workload: str, seed: int) -> System:
    database = workloads.instance(seed)
    engine = CitationEngine(database, gtopdb.citation_views(extended=True))
    service = CitationService(engine)
    for read in warm_up_reads(workload, database):
        response, _ = serve(service, read)
        response.unwrap()
    return System(database, engine, service)


@dataclass
class Half:
    """Operations of the untraced or the traced blocks of a run."""

    ops: int = 0
    busy: float = 0.0
    reads: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)

    def throughput(self) -> float:
        return self.ops / self.busy if self.busy else 0.0


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    traced: bool
    stamp: dict[str, Any]
    setup_times: list[float]
    untraced: Half
    traced_half: Half
    attempted: int
    failed: int
    errors: list[str]
    properties: dict[str, float]
    counter_deltas: dict[str, int]
    write_probe: list[float]
    peak_rss_mb: float
    tracer: Tracer | None

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """``name -> (value, sample count)``."""
        half = self.untraced
        writes = half.writes or self.write_probe
        return {
            "latency_p50_ms": (statistics.median(half.reads) * 1e3, len(half.reads)),
            "latency_p90_ms": (
                statistics.quantiles(half.reads, n=10)[-1] * 1e3,
                len(half.reads),
            ),
            "throughput_rps": (half.throughput(), half.ops),
            "write_p50_ms": (statistics.median(writes) * 1e3, len(writes)),
            "setup_s": (statistics.median(self.setup_times), len(self.setup_times)),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }

    def per_layer(self) -> dict[str, tuple[float, int]]:
        tracer = self.tracer
        assert tracer is not None
        half = self.traced_half
        ops = max(half.ops, 1)
        out: dict[str, tuple[float, int]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (tracer.self_s[layer] / ops * 1e3, half.ops)
            out[f"{layer}.calls"] = (tracer.calls[layer] / ops, half.ops)
        attributed = sum(tracer.self_s.values())
        out["unattributed_ms"] = ((half.busy - attributed) / ops * 1e3, half.ops)
        deltas = self.counter_deltas
        lookups = deltas["plan_cache_hits"] + deltas["plan_compilations"]
        records = tracer.calls["core.records"]
        out["service.result_hit_ratio"] = (
            _ratio(deltas["result_cache_hits"], deltas["requests"]),
            deltas["requests"],
        )
        out["service.plan_hit_ratio"] = (_ratio(deltas["plan_cache_hits"], lookups), lookups)
        out["core.record_hit_ratio"] = (
            1.0 - _ratio(tracer.calls["core.snippets"], records, empty=0.0),
            records,
        )
        out["trace.overhead"] = (
            half.throughput() / self.untraced.throughput(),
            half.ops + self.untraced.ops,
        )
        return out

    def report(self) -> dict[str, Any]:
        if self.traced:
            measured, units = self.per_layer(), per_layer_units()
        else:
            measured, units = self.end_to_end(), END_TO_END
        error_rate = self.failed / self.attempted
        lines = [
            f"# perfbench workload={self.workload} seed={self.seed} "
            f"seconds={self.seconds:g} trace={int(self.traced)}",
            "# stamp " + json.dumps(self.stamp, sort_keys=True),
            "# properties " + json.dumps(self.properties, sort_keys=True),
        ]
        if self.tracer is not None and self.tracer.absent:
            lines.append("# absent layers " + " ".join(self.tracer.absent))
        for name, (value, samples) in measured.items():
            lines.append(f"# {name} = {value:.6g} {units[name]} (n={samples})")
        lines.append(
            f"# error_rate = {error_rate:.6g} ratio "
            f"(n={self.attempted}, failed={self.failed})"
        )
        lines.extend(f"# error: {message}" for message in self.errors[:10])
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, (value, _samples) in measured.items()
        }
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced),
            "stamp": self.stamp,
            "properties": self.properties,
            "samples": {name: samples for name, (_value, samples) in measured.items()},
            "error_rate": error_rate,
            "errors": self.errors,
            **result,
        }
        return {"lines": lines, "result": result, "record": record}


def _ratio(part: float, whole: float, empty: float = 1.0) -> float:
    """``part / whole``; *empty* when there was nothing to count."""
    return part / whole if whole else empty


COUNTERS = ("requests", "result_cache_hits", "plan_cache_hits", "plan_compilations")


def _counters(service: CitationService) -> dict[str, int]:
    counters = service.stats()["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}


def cpu_calibration_ms() -> float:
    """Median time of a fixed pure-Python loop that runs no program code.

    Stamped before and after each run: on a shared machine the speed of
    plain Python drifts between runs, and absolute times compare only
    between runs whose calibration agrees.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def _reservoir_slot(seen: int, size: int, rng: random.Random) -> int | None:
    """Where the *seen*-th item goes in a uniform reservoir sample of *size*."""
    if seen <= size:
        return seen - 1
    slot = rng.randrange(seen)
    return slot if slot < size else None


def run(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    """Set up *workload*, measure it for *seconds* of operations, check answers."""
    calibration = [cpu_calibration_ms()]
    setup_times = []
    system: System | None = None
    for _ in range(SETUPS):
        if system is not None:
            system.service.close()
            system = None
        gc.collect()
        started = time.perf_counter()
        system = setup(workload, seed)
        setup_times.append(time.perf_counter() - started)
    assert system is not None
    database, service = system.database, system.service

    tracer = Tracer() if traced else None
    rng = random.Random(f"check:{seed}")
    ops = workloads.stream(workload, seed, database)
    rows = database.sizes()
    halves = {False: Half(), True: Half()}
    deltas: Counter[str] = Counter()
    run_start = _counters(service)
    read_only = workload != "churn"
    # Read-only workloads keep a reservoir sample of reads, all checked
    # against one snapshot; churn snapshots the database before each read
    # it checks.
    snapshot = database.copy() if read_only else None
    generation = database.generation
    probe: System | None = None
    write_probe: list[float] = []
    if read_only and not traced:
        copy = database.copy()
        engine = CitationEngine(copy, gtopdb.citation_views(extended=True))
        probe = System(copy, engine, CitationService(engine))
        probe_writes = workloads.write_stream(seed, copy)
    kept: list[check.Observation] = []
    checks: list[tuple[check.Observation, Database]] = []
    check_next_read = False
    checked_writes = checked_reads = 0
    attempted = failed = 0
    errors: list[str] = []
    modes: Counter[str] = Counter()
    formats: Counter[str] = Counter()
    result_hits = large = unions = 0
    fingerprints: set[str | None] = set()
    clock = time.perf_counter
    op_index = block = 0

    # A traced run measures at least one untraced and one traced block.
    while halves[False].busy + halves[True].busy < seconds or (
        tracer is not None and not halves[True].ops
    ):
        in_trace = tracer is not None and block % 2 == 1
        half = halves[in_trace]
        if in_trace:
            before = _counters(service)
            tracer.install(system.engine)
        for _ in range(BLOCK[workload]):
            op = next(ops)
            op_index += 1
            attempted += 1
            if tracer is not None:
                tracer.request_id = op_index
            if isinstance(op, Write):
                if checked_writes < CHECKED_WRITES and rng.random() < CHECKED_WRITE_P:
                    checked_writes += 1
                    check_next_read = True
                started = clock()
                try:
                    op.apply(database)
                except Exception as error:  # a failed write is counted, not fatal
                    failed += 1
                    errors.append(f"write {op.inserts[0]}: {error!r}")
                    continue
                elapsed = clock() - started
                half.writes.append(elapsed)
                half.busy += elapsed
                half.ops += 1
                continue

            before_read = None
            if check_next_read:
                check_next_read = False
                before_read = database.copy()
            elif (
                not read_only
                and checked_reads < CHECKED_CHURN_READS
                and rng.random() < CHECKED_CHURN_READ_P
            ):
                checked_reads += 1
                before_read = database.copy()

            started = clock()
            response, text = serve(service, op)
            elapsed = clock() - started

            half.busy += elapsed
            half.ops += 1
            modes[op.mode] += 1
            formats[op.fmt] += 1
            if not response.ok:
                failed += 1
                errors.append(f"{op.query!r} ({op.mode}): {response.error!r}")
                continue
            half.reads.append(elapsed)
            if probe is not None and len(half.reads) % PROBE_EVERY == 0:
                write = next(probe_writes)
                started = clock()
                write.apply(probe.database)
                write_probe.append(clock() - started)
            result_hits += response.cached
            large += len(response.citation.records) >= LARGE_CITATION
            unions += response.backend == "union"
            fingerprints.add(response.fingerprint)
            slot = (
                _reservoir_slot(len(half.reads) + len(halves[not in_trace].reads), CHECKED_READS, rng)
                if read_only
                else None
            )
            if slot is not None or before_read is not None:
                observation = check.Observation(
                    op, check.canonical_rows(response.result.result.rows), text
                )
                if before_read is not None:
                    checks.append((observation, before_read))
                elif slot == len(kept):
                    kept.append(observation)
                else:
                    kept[slot] = observation
        if in_trace:
            tracer.uninstall()
            after = _counters(service)
            deltas.update({name: after[name] - before[name] for name in COUNTERS})
        block += 1

    run_end = _counters(service)
    calibration.append(cpu_calibration_ms())
    # Read before the checks, whose reference engines are not the program
    # under measurement.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if snapshot is not None:
        checks.extend((observation, snapshot) for observation in kept)
        if database.generation != generation:
            failed += 1
            errors.append("a read-only workload changed the database")
    for observation, before_read in checks:
        problem = check.verify(observation, before_read)
        if problem is not None:
            failed += 1
            errors.append(
                f"check {observation.read.query!r} ({observation.read.mode}): {problem}"
            )

    service.close()
    if probe is not None:
        probe.service.close()

    reads = max(sum(len(h.reads) for h in halves.values()), 1)
    writes = sum(len(h.writes) for h in halves.values())
    recompiles = run_end["plan_compilations"] - run_start["plan_compilations"]
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_calibration_ms": calibration,
        "families": workloads.FAMILIES,
        "rows": rows,
        "seed": seed,
        "mode_mix": dict(sorted(modes.items())),
        "format_mix": dict(sorted(formats.items())),
        "checked_reads": len(checks),
    }
    properties = {
        "result_hit_share": result_hits / reads,
        "large_citation_share": large / reads,
        "distinct_fingerprint_share": len(fingerprints) / reads,
        "union_share": unions / reads,
        "writes_per_read": writes / reads,
        "plan_recompiles_per_write": recompiles / writes if writes else 0.0,
    }
    return Result(
        workload=workload,
        seed=seed,
        seconds=seconds,
        traced=traced,
        stamp=stamp,
        setup_times=setup_times,
        untraced=halves[False],
        traced_half=halves[True],
        attempted=attempted,
        failed=failed,
        errors=errors,
        properties=properties,
        counter_deltas={name: deltas[name] for name in COUNTERS},
        write_probe=write_probe,
        peak_rss_mb=peak_rss_mb,
        tracer=tracer,
    )
