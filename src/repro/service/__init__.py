"""The citation serving layer: cached, batched, concurrent citation.

This package turns the per-call engines into a request-serving subsystem,
the "citation as a service" workload:

* :mod:`repro.service.fingerprint` — structural query fingerprints, invariant
  under variable renaming and body-atom reordering;
* :mod:`repro.service.plan_cache` — token-stamped LRU caches so repeated
  query shapes skip each backend's compile phase;
* :mod:`repro.service.service` — the :class:`CitationService` facade: one
  ``submit()`` / ``submit_batch()`` path routing
  :class:`~repro.api.envelope.CitationRequest` envelopes to registered
  :class:`~repro.api.backend.CitationBackend` adapters (plus the
  ``cite``/``plan_for`` conjunctive-query conveniences);
* :mod:`repro.service.metrics` — global and per-backend counters and latency
  histograms surfaced by :meth:`CitationService.stats`.

The request/response envelope and the backend adapters live in
:mod:`repro.api`.
"""

from repro.api.backend import BackendCapabilities, BackendRegistry, CitationBackend
from repro.api.envelope import CitationRequest, CitationResponse
from repro.core.engine import CitationPlan
from repro.service.explain import ExplainReport
from repro.service.fingerprint import are_isomorphic, canonical_key, fingerprint
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.plan_cache import CacheInfo, GenerationalLRU, PlanCache
from repro.service.service import CitationService

__all__ = [
    "CitationPlan",
    "CitationRequest",
    "CitationResponse",
    "CitationBackend",
    "BackendCapabilities",
    "BackendRegistry",
    "CitationService",
    "ServiceMetrics",
    "LatencyHistogram",
    "ExplainReport",
    "PlanCache",
    "GenerationalLRU",
    "CacheInfo",
    "fingerprint",
    "canonical_key",
    "are_isomorphic",
]
