"""JSON citation rendering."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.citation import Citation
    from repro.core.record import CitationRecord


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _record_payload(record: "CitationRecord") -> dict[str, object]:
    """The JSON-serialisable object of one record."""
    fields: dict[str, object] = {}
    for key, value in sorted(record.as_dict().items()):
        if key == "parameters" and isinstance(value, tuple):
            fields[key] = {str(k): _jsonable(v) for k, v in value}
        else:
            fields[key] = _jsonable(value)
    return fields


#: ``json.dumps(..., indent=2, sort_keys=True)``, built once.
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _dumps_at(value: object, depth: int) -> str:
    """*value* encoded as ``json.dumps(..., indent=2, sort_keys=True)`` encodes
    it *depth* levels deep (strings never hold a raw newline)."""
    return _ENCODER.encode(value).replace("\n", "\n" + "  " * depth)


def _record_fragment(record: "CitationRecord") -> str:
    """*record*'s object as it appears in the document's ``records`` array."""
    return _dumps_at(_record_payload(record), 2)


def _metadata(citation: "Citation") -> dict[str, object]:
    """Every top-level entry of the payload except ``records``."""
    payload: dict[str, object] = {"size": citation.size()}
    if citation.version:
        payload["version"] = citation.version
    if citation.timestamp:
        payload["timestamp"] = citation.timestamp
    if citation.query_text:
        payload["query"] = citation.query_text
    if citation.expression is not None:
        payload["expression"] = citation.symbolic()
    return payload


def citation_payload(citation: "Citation") -> dict:
    """Build the JSON-serialisable payload of a citation."""
    records = [_record_payload(record) for record in citation.sorted_records()]
    return {"records": records, **_metadata(citation)}


def format_citation(citation: "Citation") -> str:
    """Render a citation as pretty-printed JSON.

    The output is ``json.dumps(citation_payload(citation), indent=2,
    sort_keys=True)``, spliced from per-record fragments that are rendered
    once and kept on the records: only the metadata is encoded per call, and
    the document is joined once.
    """
    encoded = {key: _dumps_at(value, 1) for key, value in _metadata(citation).items()}
    fragments = [
        record.fragment("json", _record_fragment) for record in citation.sorted_records()
    ]
    parts: list[str] = []
    for key in sorted([*encoded, "records"]):
        parts.append(f"{',' if parts else '{'}\n  {json.dumps(key)}: ")
        if key != "records":
            parts.append(encoded[key])
        elif not fragments:
            parts.append("[]")
        else:
            for position, fragment in enumerate(fragments):
                parts.append(",\n    " if position else "[\n    ")
                parts.append(fragment)
            parts.append("\n  ]")
    parts.append("\n}")
    return "".join(parts)
