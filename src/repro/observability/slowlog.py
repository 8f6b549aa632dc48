"""The slow-query log: retain the N slowest request traces.

The tracer offers every finished request-boundary span; the log keeps the
*capacity* slowest by duration (a min-heap on duration, so each offer is
O(log N) and the cheapest retained trace is evicted first), optionally
ignoring requests faster than *threshold_ms*.  Entirely in memory and
thread-safe — ``submit_batch`` finishes requests on worker threads.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.observability.tracer import TraceSpan

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """A bounded keep-the-slowest collection of finished request spans."""

    def __init__(self, capacity: int = 32, threshold_ms: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be positive")
        self.capacity = capacity
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        # Heap entries: (duration_s, tiebreak, span).  The tiebreak keeps
        # heapq from ever comparing spans (equal durations happen).
        self._heap: list[tuple[float, int, TraceSpan]] = []
        self._tiebreak = itertools.count()
        self.offered = 0
        self.retained = 0

    def offer(self, span: "TraceSpan") -> bool:
        """Consider one finished span; return whether it was retained."""
        duration = span.duration_s or 0.0
        if duration * 1000.0 < self.threshold_ms:
            return False
        with self._lock:
            self.offered += 1
            entry = (duration, next(self._tiebreak), span)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
                self.retained = len(self._heap)
                return True
            if duration <= self._heap[0][0]:
                return False
            heapq.heapreplace(self._heap, entry)
            return True

    def entries(self) -> list["TraceSpan"]:
        """The retained traces, slowest first."""
        with self._lock:
            ranked = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [span for _duration, _tiebreak, span in ranked]

    def snapshot(self) -> list[dict[str, Any]]:
        """A JSON-friendly summary of the retained traces, slowest first."""
        out = []
        for span in self.entries():
            entry: dict[str, Any] = {
                "name": span.name,
                "duration_ms": round((span.duration_s or 0.0) * 1000.0, 3),
                "started_at": span.started_at,
            }
            for key in ("request_id", "backend", "fingerprint", "query", "error"):
                if key in span.attributes:
                    entry[key] = span.attributes[key]
            out.append(entry)
        return out

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "threshold_ms": self.threshold_ms,
                "offered": self.offered,
                "retained": len(self._heap),
            }

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self.retained = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
