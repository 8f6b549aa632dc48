"""Version-stamped relation statistics and the evaluator's timing metrics.

* :class:`StatisticsCatalog` — per-relation row counts and per-position
  distinct-value counts, stamped with the relation's identity and
  :attr:`~repro.relational.relation.Relation.version`, so entries refresh
  lazily exactly when the data drifts.  The rewriting cost model
  (:class:`~repro.rewriting.cost.RewritingCostModel`) owns one, so economical
  rewriting selection scans each relation column once per version instead of
  once per estimate;
* :class:`EvaluationMetrics` — thread-safe counts and times of the join
  evaluations an engine runs, overall and per query fingerprint, surfaced
  through :meth:`~repro.service.service.CitationService.stats` and the CLI
  ``--stats`` output.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from repro.concurrency import shared_state
from repro.relational.relation import Relation

__all__ = ["RelationStatistics", "StatisticsCatalog", "EvaluationMetrics"]


class RelationStatistics:
    """Statistics of one relation instance, valid for one version.

    ``row_count`` is read eagerly; distinct-value counts are filled lazily
    per position tuple by the owning :class:`StatisticsCatalog` (each costs
    one projection scan the first time).  The catalog drops the whole object
    when the relation's identity or version changes.
    """

    __slots__ = ("name", "relation", "version", "row_count", "distinct")

    def __init__(self, name: str, relation: Relation) -> None:
        self.name = name
        self.relation = relation
        self.version = relation.version
        self.row_count = len(relation)
        self.distinct: dict[tuple[int, ...], int] = {}

    def __repr__(self) -> str:
        return (
            f"RelationStatistics({self.name}, rows={self.row_count}, "
            f"version={self.version})"
        )


class StatisticsCatalog:
    """Version-stamped statistics over the relations a caller reads.

    Entries are stamped ``(relation identity, relation version)`` and refresh
    lazily: a lookup that finds a drifted stamp recomputes, so the catalog
    never needs an explicit notification channel.  :meth:`invalidate` remains
    for forced cache invalidation.  Counts come from projection scans, never
    from a hash index, so keeping statistics builds no index.

    The catalog may be shared by concurrent readers: entry replacement is a
    single dict store and racing builders produce equivalent entries.
    """

    def __init__(self) -> None:
        self._stats: dict[str, RelationStatistics] = {}

    def statistics(self, name: str, relation: Relation) -> RelationStatistics:
        """The current statistics of *relation* (refreshed on version drift)."""
        stats = self._stats.get(name)
        if (
            stats is None
            or stats.relation is not relation
            or stats.version != relation.version
        ):
            stats = RelationStatistics(name, relation)
            self._stats[name] = stats
        return stats

    def distinct_count(
        self, name: str, relation: Relation, positions: Iterable[int]
    ) -> int:
        """Distinct values of *relation* projected onto *positions* (cached)."""
        positions = tuple(positions)
        stats = self.statistics(name, relation)
        count = stats.distinct.get(positions)
        if count is None:
            count = relation.distinct_count(positions)
            stats.distinct[positions] = count
        return count

    def invalidate(self) -> None:
        """Drop every cached statistic (they rebuild lazily on next use)."""
        self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)


@shared_state("_evaluations", "_seconds", "_by_query", lock="_lock")
class EvaluationMetrics:
    """Thread-safe counts and times of join evaluations.

    A :class:`~repro.core.engine.CitationEngine` owns one instance and
    threads it into every evaluator it builds; the serving layer registers
    :meth:`snapshot` as a gauge source so the block appears in
    :meth:`CitationService.stats` and the CLI ``--stats``.  Evaluations run
    under a request's fingerprint (scoped by
    :func:`repro.observability.context.fingerprint_scope`) also accumulate
    per fingerprint, so :meth:`query_profiles` shows which queries the join
    time went to.
    """

    #: FIFO bound on per-fingerprint entries: the service outlives requests,
    #: so ad-hoc query traffic must not grow the map without bound.  Evicted
    #: fingerprints simply start a fresh entry if they reappear.
    MAX_TRACKED_QUERIES = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._evaluations = 0
        self._seconds = 0.0
        # fingerprint -> [evaluation count, total seconds]
        self._by_query: dict[str, list] = {}

    def record(self, seconds: float, fingerprint: str | None = None) -> None:
        """Record one evaluation that took *seconds* (under *fingerprint*)."""
        with self._lock:
            self._evaluations += 1
            self._seconds += seconds
            if fingerprint is None:
                return
            entry = self._by_query.get(fingerprint)
            if entry is None:
                entry = self._by_query[fingerprint] = [0, 0.0]
                while len(self._by_query) > self.MAX_TRACKED_QUERIES:
                    self._by_query.pop(next(iter(self._by_query)))
            entry[0] += 1
            entry[1] += seconds

    def query_profiles(self) -> dict[str, dict]:
        """Per-fingerprint evaluation counts and mean milliseconds."""
        with self._lock:
            tracked = {fp: tuple(entry) for fp, entry in self._by_query.items()}
        return {fp: _profile(count, total) for fp, (count, total) in tracked.items()}

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of the counters."""
        with self._lock:
            count, total = self._evaluations, self._seconds
            tracked_queries = len(self._by_query)
        return {**_profile(count, total), "tracked_queries": tracked_queries}

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._reset_locked()


def _profile(count: int, seconds: float) -> dict:
    mean_ms = round(seconds * 1000.0 / count, 4) if count else 0.0
    return {"evaluations": count, "mean_ms": mean_ms}
