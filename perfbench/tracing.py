"""Per-layer spans recorded from outside the program.

The traced run wraps public functions of the program, one layer each, for
the duration of a traced block and restores the originals afterwards; the
program's own tracer stays off.  A span records its layer, request id,
parent span and start/end times.  Spans stay in memory and are written out
once, when the run ends.  A layer's self time is its span's duration minus
the durations of its child spans.

A wrapper whose target no longer exists marks its layer absent: the layer
reports zero, and its time falls into ``unattributed``.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: ``layer -> [(module, class, method), ...]``: the public functions each
#: layer is timed around.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "service": [("repro.service.service", "CitationService", "submit")],
    "service.fingerprint": [
        ("repro.api.backends.relational", "RelationalBackend", "fingerprint"),
        ("repro.api.backends.union", "UnionBackend", "fingerprint"),
    ],
    "api.parse": [
        ("repro.api.backends.relational", "RelationalBackend", "parse"),
        ("repro.api.backends.union", "UnionBackend", "parse"),
    ],
    "api.rebind": [
        ("repro.api.backends.relational", "RelationalBackend", "rebind"),
        ("repro.api.backends.union", "UnionBackend", "rebind"),
    ],
    "core.formatter": [
        ("repro.core.citation", "Citation", "to_text"),
        ("repro.core.citation", "Citation", "to_bibtex"),
        ("repro.core.citation", "Citation", "to_ris"),
        ("repro.core.citation", "Citation", "to_json"),
    ],
    "analysis": [("repro.core.engine", "CitationEngine", "analyze")],
    "rewriting": [("repro.core.engine", "CitationEngine", "rewritings")],
    "core.select": [("repro.core.rewriting_selector", "RewritingSelector", "select")],
    "core.plan": [("repro.core.engine", "CitationEngine", "compile_plan")],
    "api.union": [("repro.api.backends.union", "UnionBackend", "execute")],
    "core.assemble": [("repro.core.engine", "CitationEngine", "execute_plan")],
    # CitationPolicy.aggregate is a dataclass field, not a method: the run
    # wraps it on the engine's policy instance (see ``Tracer.install``).
    "core.policy": [("repro.core.policy", "CitationPolicy", "evaluate")],
    "core.records": [("repro.core.engine", "CitationEngine", "citation_record")],
    "query.evaluate": [("repro.query.evaluator", "QueryEvaluator", "evaluate_with_bindings")],
    "core.snippets": [("repro.core.citation_view", "CitationView", "citation_for")],
    "query.snippet_eval": [("repro.query.evaluator", "QueryEvaluator", "evaluate")],
    "rewriting.materialize": [("repro.core.engine", "CitationEngine", "view_relations")],
    "relational.write": [
        ("repro.relational.database", "Database", "insert"),
        ("repro.relational.database", "Database", "delete"),
    ],
}

#: ``QueryEvaluator.evaluate`` also materialises views; only the calls made
#: while building a citation record are snippet evaluations.  Elsewhere the
#: call opens no span and its time stays with the caller.
ONLY_UNDER = {"query.snippet_eval": "core.snippets"}

# Fields of an open span (a list, so the child total can be updated).
_LAYER, _ID, _CHILD = range(3)


class Tracer:
    """Installs the layer wrappers and accumulates spans while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.request_id = 0
        self.absent: list[str] = []
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._targets: list[tuple[str, type, str, Any]] = []
        self._installed: list[tuple[object, str, Any, bool]] = []
        for layer, targets in LAYERS.items():
            found = 0
            for module_name, class_name, attribute in targets:
                try:
                    owner = getattr(importlib.import_module(module_name), class_name)
                except (ImportError, AttributeError):
                    continue
                original = owner.__dict__.get(attribute)
                if original is None and not callable(getattr(owner, attribute, None)):
                    continue
                self._targets.append((layer, owner, attribute, original))
                found += 1
            if not found:
                self.absent.append(layer)

    # -- installing ------------------------------------------------------------
    def install(self, engine: Any) -> None:
        """Wrap every present target, plus the aggregate of *engine*'s policy."""
        for layer, owner, attribute, own in self._targets:
            current = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(layer, current))
            self._installed.append((owner, attribute, own, True))
        policy = getattr(engine, "policy", None)
        aggregate = getattr(policy, "aggregate", None)
        if callable(aggregate):
            engine.policy = dataclasses.replace(
                policy, aggregate=self._wrap("core.policy", aggregate)
            )
            self._installed.append((engine, "policy", policy, False))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the object it replaced."""
        while self._installed:
            owner, attribute, original, on_class = self._installed.pop()
            if on_class and original is None:
                delattr(owner, attribute)  # the method was inherited
            else:
                setattr(owner, attribute, original)

    def _wrap(self, layer: str, function: Callable) -> Callable:
        stack = self._stack
        only_under = ONLY_UNDER.get(layer)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            parent_layer = parent[_LAYER] if parent is not None else None
            # Re-entrant calls (a recursive policy evaluation) fold into the
            # outer span, so ``calls`` counts entries into the layer.
            if parent_layer == layer or (only_under and parent_layer != only_under):
                return function(*args, **kwargs)
            span = [layer, self._next_id, 0.0]
            self._next_id += 1
            stack.append(span)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - span[_CHILD]
                self.calls[layer] += 1
                if parent is not None:
                    parent[_CHILD] += duration
                self.spans.append(
                    (self.request_id, span[_ID], parent[_ID] if parent else 0, layer, start, end)
                )

        return traced

    # -- output ----------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for request_id, span_id, parent_id, layer, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "request": request_id,
                            "span": span_id,
                            "parent": parent_id,
                            "layer": layer,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
