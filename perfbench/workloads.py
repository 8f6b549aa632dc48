"""Seeded inputs of the request-level benchmark: the instance and the request streams.

Everything here is a pure function of the workload seed, so the same seed
gives the same instance and the same request stream.  The program under
test only ever sees the generated :class:`Read` and :class:`Write`
operations.

Three traffic mixes, each a closed loop driven by one client:

* ``hot`` — a Zipf distribution over a fixed catalog (the GtoPdb example
  queries and alpha-renamed variants, both modes), each response formatted
  in one of four formats.  The catalog fits the service's plan and result
  caches, so almost every read is a result-cache hit.
* ``explore`` — ad-hoc queries from five templates (one a union of CQs)
  whose selection constants are drawn from the instance's keys, so almost
  every read has a fingerprint never seen before.
* ``churn`` — reads from the ``hot`` catalog with one write every
  ``CHURN_READS_PER_WRITE`` reads (see :func:`churn_windows`).

``hot`` and ``explore`` reads are drawn in blocks by systematic sampling: a
block of ``n`` draws gives every catalog entry (or template) the floor or
ceiling of its expected count, and the seed shuffles the order.  The mix a
run measures then differs between seeds only by the rounding of one block,
which keeps run-to-run spread low without fixing the order of requests.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.relational.database import Database
from repro.workloads import gtopdb

#: Instance size: about 300 families give ~8.9k rows (1200 targets, ~3.6k
#: interactions); recorded in BENCHMARK.json's workload descriptions.
FAMILIES = 300

WORKLOADS = ("hot", "explore", "churn")
MODES = ("formal", "economical")
FORMATS = ("text", "bibtex", "ris", "json")

#: Example queries whose citation names every target (over 1200 records).
LARGE_QUERIES = ("Q5", "Q6")
#: Zipf exponent of the ``hot`` and ``churn`` read distributions.
ZIPF_S = 1.0
#: Reads per systematic-sampling block of ``hot`` and ``explore``.
HOT_BLOCK = 120
EXPLORE_BLOCK = 20
#: The ``churn`` write:read ratio is 1:CHURN_READS_PER_WRITE, in blocks of
#: CHURN_WINDOWS writes.
CHURN_READS_PER_WRITE = 4
CHURN_WINDOWS = 10

#: Keys of rows the benchmark inserts, far above any generated key.
_WRITE_KEY_BASE = 1_000_000

#: Query templates of ``explore``.  ``{f}``, ``{t}`` and ``{l}`` are family,
#: target and ligand keys of the instance.  Each template selects on two keys,
#: mostly to put two entities side by side, so it has tens of thousands of
#: instantiations and almost every read has a fingerprint not seen before.
#: The last template is a union of CQs, which auto-routing sends to the union
#: backend.
EXPLORE_TEMPLATES = (
    "Q(FName, Text, TName) :- Family({f}, FName, D), FamilyIntro({f}, Text), "
    "Target({t}, F, TName, Ty)",
    "Q(TName, Action, LName) :- Target({t}, F, TName, Ty), Interaction({t}, L, Action, A), "
    "Ligand({l}, LName, LT)",
    "Q(TName, LName, FName) :- Interaction(T, {l}, Action, A), Target(T, F, TName, Ty), "
    "Ligand({l}, LName, LT), Family({f}, FName, D)",
    "Q(TName, FName, OName) :- Target(T, {f}, TName, Ty), Family({f}, FName, D), "
    "Target({t}, G, OName, OTy)",
    "Q(N) :- Family({f}, N, D), FamilyIntro({f}, X); Q(N) :- Target({t}, F, N, Ty)",
)
UNION_TEMPLATE = len(EXPLORE_TEMPLATES) - 1


@dataclass(frozen=True)
class Read:
    """One citation request and the format its citation is rendered in."""

    query: str
    mode: str
    fmt: str
    #: Catalog entry (``hot``/``churn``) or template index (``explore``).
    source: int


@dataclass(frozen=True)
class Write:
    """Replace the rows the previous write inserted with a fresh group.

    One write deletes the previous write's Family, FamilyIntro, Target and
    Contributor rows (children first) and inserts a new family with its
    introduction and one target with two contributors (parents first), so
    every write does the same work and the instance keeps its size.
    """

    deletes: tuple[tuple[str, tuple], ...]
    inserts: tuple[tuple[str, tuple], ...]

    def apply(self, database: Database) -> None:
        for relation, row in self.deletes:
            if not database.delete(relation, row):
                raise RuntimeError(f"delete of {relation}{row} changed nothing")
        for relation, row in self.inserts:
            if not database.insert(relation, row):
                raise RuntimeError(f"insert of {relation}{row} changed nothing")


def instance(seed: int) -> Database:
    """The GtoPdb instance of one run."""
    return gtopdb.generate(families=FAMILIES, seed=seed)


def hot_catalog() -> list[tuple[str, str]]:
    """The fixed ``(query text, mode)`` catalog of ``hot`` and ``churn``, by Zipf rank.

    Each example query appears as submitted and under two alpha-renamings,
    which share its fingerprint, in both modes.  Entries whose citation names
    every target (``LARGE_QUERIES``) take every third rank, so about a
    quarter of the reads render a citation of over a thousand records: the
    median read is a small one and the 90th percentile a large one.  The
    order is fixed, independent of the workload seed.
    """
    small: list[tuple[str, str]] = []
    large: list[tuple[str, str]] = []
    for query in gtopdb.example_queries():
        bucket = large if query.name in LARGE_QUERIES else small
        for variant in (query, query.rename_apart("_1"), query.rename_apart("_2")):
            bucket.extend((str(variant), mode) for mode in MODES)
    order = random.Random(20170514)
    order.shuffle(small)
    order.shuffle(large)
    catalog = []
    while small or large:
        catalog.extend(small[:2])
        del small[:2]
        if large:
            catalog.append(large.pop())
    return catalog


def zipf_weights(n: int, s: float = ZIPF_S) -> list[float]:
    raw = [1.0 / (rank**s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def systematic_sample(weights: Sequence[float], size: int, offset: float) -> list[int]:
    """``size`` draws from ``weights`` by systematic sampling, in index order.

    Each index appears ``floor(size*w)`` or ``ceil(size*w)`` times; the
    *offset* in ``[0, 1)`` decides which.
    """
    draws = []
    cumulative = 0.0
    index = 0
    for k in range(size):
        point = (offset + k) / size
        while index < len(weights) - 1 and cumulative + weights[index] <= point:
            cumulative += weights[index]
            index += 1
        draws.append(index)
    return draws


def systematic_block(weights: Sequence[float], size: int, rng: random.Random) -> list[int]:
    """A systematic sample with a seeded offset, in seeded order."""
    draws = systematic_sample(weights, size, rng.random())
    rng.shuffle(draws)
    return draws


def _catalog_reads(rng: random.Random, block: int) -> Iterator[Read]:
    catalog = hot_catalog()
    weights = zipf_weights(len(catalog))
    # Each entry cycles through the formats from a seeded offset, so every
    # entry is rendered in every format equally often.
    next_format = [rng.randrange(len(FORMATS)) for _ in catalog]
    while True:
        for entry in systematic_block(weights, block, rng):
            query, mode = catalog[entry]
            fmt = FORMATS[next_format[entry] % len(FORMATS)]
            next_format[entry] += 1
            yield Read(query, mode, fmt, entry)


def hot_stream(seed: int) -> Iterator[Read]:
    return _catalog_reads(random.Random(f"hot:{seed}"), HOT_BLOCK)


def explore_stream(seed: int, database: Database) -> Iterator[Read]:
    rng = random.Random(f"explore:{seed}")
    fids = sorted(row[0] for row in database.relation("Family").rows)
    tids = sorted(row[0] for row in database.relation("Target").rows)
    lids = sorted(row[0] for row in database.relation("Ligand").rows)
    shapes = [(t, m) for t in range(len(EXPLORE_TEMPLATES)) for m in MODES]
    uniform = [1.0 / len(shapes)] * len(shapes)
    while True:
        for shape in systematic_block(uniform, EXPLORE_BLOCK, rng):
            template, mode = shapes[shape]
            query = EXPLORE_TEMPLATES[template].format(
                f=rng.choice(fids), t=rng.choice(tids), l=rng.choice(lids)
            )
            yield Read(query, mode, FORMATS[rng.randrange(len(FORMATS))], template)


def write_stream(seed: int, database: Database) -> Iterator[Write]:
    """Writes that each replace the previous write's rows with new ones.

    Only rows the stream inserted are ever deleted, so the generated instance
    stays intact and every write changes the database.  The database is read
    here only for the curator names new targets credit.
    """
    rng = random.Random(f"writes:{seed}")
    curators = sorted({row[1] for row in database.relation("Contributor").rows})
    previous: tuple[tuple[str, tuple], ...] = ()
    for key in itertools.count(_WRITE_KEY_BASE):
        inserts = (
            ("Family", (key, f"Benchmark family {key}", f"Inserted family {key}")),
            ("FamilyIntro", (key, f"Introductory text for family {key}")),
            ("Target", (key, key, f"Target-{key}", "GPCR")),
            *(("Contributor", (key, name)) for name in sorted(rng.sample(curators, k=2))),
        )
        yield Write(tuple(reversed(previous)), inserts)
        previous = inserts


def churn_windows() -> list[list[Read]]:
    """The read windows of ``churn``: the reads that follow one write each.

    A read's cost in ``churn`` depends on what the reads before it in its
    window rebuilt since the write (views, citation records, economical
    plans), so the windows are fixed: a Zipf sample of the ``hot`` catalog,
    dealt in rank order across ``CHURN_WINDOWS`` windows so each window
    holds a popular and a rarer entry.  Seeds change the instance, the
    writes and the order of the windows, not what a window costs.
    """
    catalog = hot_catalog()
    draws = systematic_sample(
        zipf_weights(len(catalog)), CHURN_WINDOWS * CHURN_READS_PER_WRITE, 0.5
    )
    windows: list[list[Read]] = [[] for _ in range(CHURN_WINDOWS)]
    uses: Counter[int] = Counter()
    for position, entry in enumerate(draws):
        query, mode = catalog[entry]
        fmt = FORMATS[(entry + uses[entry]) % len(FORMATS)]
        uses[entry] += 1
        windows[position % CHURN_WINDOWS].append(Read(query, mode, fmt, entry))
    return windows


def churn_stream(seed: int, database: Database) -> Iterator[Read | Write]:
    rng = random.Random(f"churn:{seed}")
    windows = churn_windows()
    writes = write_stream(seed, database)
    while True:
        rng.shuffle(windows)
        for window in windows:
            yield next(writes)
            yield from window


def stream(workload: str, seed: int, database: Database) -> Iterator[Read | Write]:
    """The operation stream of *workload* over *database*."""
    if workload == "hot":
        return hot_stream(seed)
    if workload == "explore":
        return explore_stream(seed, database)
    if workload == "churn":
        return churn_stream(seed, database)
    raise ValueError(f"unknown workload {workload!r}")
