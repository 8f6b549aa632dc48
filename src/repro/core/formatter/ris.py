"""RIS citation rendering."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.citation import Citation
    from repro.core.record import CitationRecord


def _listify(value: object) -> list[object]:
    return list(value) if isinstance(value, tuple) else [value]


def format_record(record: "CitationRecord") -> str:
    """Render one record as a RIS ``DATA`` entry."""
    fields = record.as_dict()
    lines = ["TY  - DATA"]
    for person in _listify(fields.get("authors", ())) + _listify(fields.get("contributors", ())):
        if person:
            lines.append(f"AU  - {person}")
    if "title" in fields:
        lines.append(f"TI  - {fields['title']}")
    if "source" in fields:
        lines.append(f"T2  - {fields['source']}")
    if "publisher" in fields:
        lines.append(f"PB  - {fields['publisher']}")
    if "year" in fields:
        lines.append(f"PY  - {fields['year']}")
    if "url" in fields:
        lines.append(f"UR  - {fields['url']}")
    if "identifier" in fields:
        lines.append(f"ID  - {fields['identifier']}")
    if "version" in fields:
        lines.append(f"ET  - {fields['version']}")
    if "parameters" in fields:
        rendered = ", ".join(f"{k}={v}" for k, v in fields["parameters"])
        lines.append(f"N1  - parameters: {rendered}")
    known = {
        "authors",
        "contributors",
        "title",
        "source",
        "publisher",
        "year",
        "url",
        "identifier",
        "version",
        "parameters",
        "view",
    }
    for key in sorted(fields):
        if key not in known:
            for value in _listify(fields[key]):
                lines.append(f"N1  - {key}: {value}")
    lines.append("ER  - ")
    return "\n".join(lines)


def format_citation(citation: "Citation") -> str:
    """Render a citation as a sequence of RIS entries (each kept on its record)."""
    blocks = [record.fragment("ris", format_record) for record in citation.sorted_records()]
    return "\n".join(blocks)
