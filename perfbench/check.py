"""Answer checks against a fresh, cache-free reference.

A checked read keeps what the client saw: its answer rows and the formatted
citation.  After the timed region, the same request is served again by a new
:class:`CitationEngine` and :class:`CitationService` built over a copy of the
database taken when the read was served, so no cache, plan or record of the
measured service can leak into the reference.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro import CitationEngine, CitationRequest, CitationService
from repro.core.citation import Citation
from repro.relational.database import Database
from repro.workloads import gtopdb

from workloads import Read


def render(citation: Citation, fmt: str) -> str:
    """The citation of one response in the format the client asked for."""
    return getattr(citation, f"to_{fmt}")()


def canonical_rows(rows: Iterable[tuple]) -> tuple[tuple, ...]:
    return tuple(sorted(rows, key=repr))


@dataclass(frozen=True)
class Observation:
    """What one read returned to the client."""

    read: Read
    rows: tuple[tuple, ...]
    text: str


def reference(snapshot: Database, read: Read) -> Observation:
    """Serve *read* from a new engine and service over *snapshot*."""
    engine = CitationEngine(snapshot, gtopdb.citation_views(extended=True))
    service = CitationService(engine)
    try:
        response = service.submit(CitationRequest(query=read.query, mode=read.mode))
    finally:
        service.close()
    response.unwrap()
    return Observation(
        read, canonical_rows(response.result.result.rows), render(response.citation, read.fmt)
    )


def mismatch(observed: Observation, expected: Observation) -> str | None:
    """Why *observed* differs from *expected*, or ``None`` when they agree."""
    if observed.rows != expected.rows:
        return f"answer rows differ: {len(observed.rows)} served, {len(expected.rows)} expected"
    if observed.text != expected.text:
        at = next(
            (i for i, (a, b) in enumerate(zip(observed.text, expected.text)) if a != b),
            min(len(observed.text), len(expected.text)),
        )
        return f"{observed.read.fmt} citation differs from byte {at}"
    return None


def verify(observed: Observation, snapshot: Database) -> str | None:
    """Check one served read against the reference over *snapshot*."""
    try:
        expected = reference(snapshot, observed.read)
    except Exception as error:  # a failing reference is a failed check, not a crash
        return f"reference failed: {error!r}"
    return mismatch(observed, expected)
