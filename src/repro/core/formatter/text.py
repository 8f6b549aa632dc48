"""Human-readable citation rendering."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.citation import Citation
    from repro.core.record import CitationRecord

#: Fields rendered first, in this order, when present.
_PREFERRED_ORDER = (
    "authors",
    "contributors",
    "title",
    "source",
    "publisher",
    "year",
    "version",
    "timestamp",
    "identifier",
    "url",
)

#: Internal bookkeeping fields that are not part of the human-readable text.
_HIDDEN_FIELDS = {"view"}


def _listify(value: object) -> list[object]:
    if isinstance(value, tuple):
        return list(value)
    return [value]


def format_record(record: "CitationRecord", abbreviate_after: int | None = None) -> str:
    """Render one citation record as a single human-readable line.

    ``abbreviate_after`` truncates long name lists with "et al." — the paper's
    "Size of citations" discussion notes this is how conventional citations
    stay small.
    """
    parts: list[str] = []
    fields = record.as_dict()
    ordered = [f for f in _PREFERRED_ORDER if f in fields] + [
        f for f in sorted(fields) if f not in _PREFERRED_ORDER and f not in _HIDDEN_FIELDS
    ]
    for field in ordered:
        value = fields[field]
        if field in ("authors", "contributors"):
            names = [str(v) for v in _listify(value)]
            if abbreviate_after is not None and len(names) > abbreviate_after:
                names = names[:abbreviate_after] + ["et al."]
            parts.append(", ".join(names))
        elif field == "parameters" and isinstance(value, tuple):
            rendered = ", ".join(f"{k}={v}" for k, v in value)
            parts.append(f"[{rendered}]")
        else:
            values = _listify(value)
            parts.append("; ".join(str(v) for v in values))
    return ". ".join(str(p) for p in parts if str(p))


def format_citation(citation: "Citation", abbreviate_after: int | None = None) -> str:
    """Render a full citation (one line per record plus fixity metadata).

    Unabbreviated lines are rendered once and kept on their records.
    """
    records = citation.sorted_records()
    if abbreviate_after is None:
        lines = [record.fragment("text", format_record) for record in records]
    else:
        lines = [format_record(record, abbreviate_after) for record in records]
    suffix: list[str] = []
    if citation.version:
        suffix.append(f"Database version: {citation.version}")
    if citation.timestamp:
        suffix.append(f"Accessed: {citation.timestamp}")
    if citation.query_text:
        suffix.append(f"Query: {citation.query_text}")
    return "\n".join([line for line in lines if line] + suffix)
