"""BibTeX citation rendering."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.citation import Citation
    from repro.core.record import CitationRecord

_FIELD_MAP = {
    "title": "title",
    "source": "howpublished",
    "publisher": "publisher",
    "year": "year",
    "url": "url",
    "identifier": "note",
    "version": "edition",
}


def _escape(value: object) -> str:
    text = str(value)
    return text.replace("{", "\\{").replace("}", "\\}")


def _slug(value: object) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "", str(value))[:24] or "entry"


def _field_lines(record: "CitationRecord") -> list[str]:
    """The field lines of *record*'s entry, in output order."""
    fields = record.as_dict()
    lines = []
    people = fields.get("authors") or fields.get("contributors")
    if people is not None:
        names = people if isinstance(people, tuple) else (people,)
        lines.append(f"  author = {{{' and '.join(_escape(n) for n in names)}}},")
    for source_field, bibtex_field in _FIELD_MAP.items():
        if source_field in fields:
            lines.append(f"  {bibtex_field} = {{{_escape(fields[source_field])}}},")
    extras = {
        k: v
        for k, v in fields.items()
        if k not in _FIELD_MAP and k not in ("authors", "contributors", "view", "parameters")
    }
    if "parameters" in fields:
        rendered = ", ".join(f"{k}={v}" for k, v in fields["parameters"])
        lines.append(f"  note = {{parameters: {_escape(rendered)}}},")
    if extras:
        rendered = "; ".join(f"{k}: {v}" for k, v in sorted(extras.items()))
        lines.append(f"  annote = {{{_escape(rendered)}}},")
    return lines


def format_record(record: "CitationRecord", key: str) -> str:
    """Render one record as an ``@misc`` BibTeX entry."""
    return "\n".join([f"@misc{{{key},", *_field_lines(record), "}"])


def _entry_parts(record: "CitationRecord") -> tuple[str, str]:
    """The key slug and the field lines (each ending in a newline) of *record*'s entry."""
    fields = record.as_dict()
    slug = _slug(fields.get("view") or fields.get("title") or "record")
    return slug, "".join(line + "\n" for line in _field_lines(record))


def format_citation(citation: "Citation", key_prefix: str = "datacite") -> str:
    """Render a citation as a sequence of BibTeX entries.

    Each record's key slug and field lines are rendered once and kept on the
    record; only the numbered key and the citation's edition vary per
    rendering.  A record with its own ``version`` keeps it as its edition.
    """
    edition = f"  edition = {{{_escape(citation.version)}}},\n" if citation.version else ""
    entries = []
    for index, record in enumerate(citation.sorted_records(), start=1):
        slug, body = record.fragment("bibtex", _entry_parts)
        extra = edition if "version" not in record else ""
        entries.append(f"@misc{{{key_prefix}_{slug}_{index},\n{body}{extra}}}")
    return "\n\n".join(entries)
