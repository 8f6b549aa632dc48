"""The :class:`Citation` object returned to users of the library.

A citation couples the evaluated set of citation records with the provenance
of how it was constructed (the symbolic expression, the query, optional
version / fixity information) and knows how to render itself in the formats
the paper mentions: human readable, BibTeX, RIS and XML (plus JSON).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter

from repro.core.expression import CitationExpression
from repro.core.record import CitationRecord, CitationSet, set_size
from repro.core.formatter import bibtex, csl, jsonfmt, ris, text, xmlfmt

_sort_key = attrgetter("sort_key")


class Citation:
    """An evaluated citation: a set of records plus construction metadata."""

    def __init__(
        self,
        records: CitationSet | Iterable[CitationRecord],
        expression: CitationExpression | None = None,
        query_text: str | None = None,
        version: str | None = None,
        timestamp: str | None = None,
    ) -> None:
        self.records: CitationSet = frozenset(records)
        self.expression = expression
        self.query_text = query_text
        self.version = version
        self.timestamp = timestamp

    # -- measurement ------------------------------------------------------------
    def size(self) -> int:
        """Total number of snippet values (the paper's "size of the citation")."""
        return set_size(self.records)

    def record_count(self) -> int:
        """Number of distinct citation records."""
        return len(self.records)

    def is_empty(self) -> bool:
        """``True`` when no citation information is available."""
        return not self.records

    # -- metadata ------------------------------------------------------------------
    def symbolic(self) -> str:
        """The symbolic citation expression (e.g. ``(CV1(11)·CV3 ...) +R ...``)."""
        return str(self.expression) if self.expression is not None else ""

    def with_fixity(self, version: str, timestamp: str | None = None) -> "Citation":
        """Return a copy carrying version / timestamp information (fixity)."""
        return Citation(
            self.records,
            expression=self.expression,
            query_text=self.query_text,
            version=version,
            timestamp=timestamp if timestamp is not None else self.timestamp,
        )

    def with_query_text(self, query_text: str) -> "Citation":
        """Return a copy reporting *query_text* (an isomorphic variant's query)."""
        return Citation(
            self.records,
            expression=self.expression,
            query_text=query_text,
            version=self.version,
            timestamp=self.timestamp,
        )

    def sorted_records(self) -> list[CitationRecord]:
        """Records in a deterministic order (used by all formatters).

        Copies share the record and expression objects (``frozenset`` of a
        ``frozenset`` is the same object), so the sort keys, symbolic text
        and per-record fragments computed for one copy serve every other.
        """
        return sorted(self.records, key=_sort_key)

    # -- rendering -----------------------------------------------------------------
    def to_text(self, abbreviate_after: int | None = None) -> str:
        """Human-readable citation text."""
        return text.format_citation(self, abbreviate_after=abbreviate_after)

    def to_bibtex(self, key_prefix: str = "datacite") -> str:
        """BibTeX rendering (one ``@misc`` entry per record)."""
        return bibtex.format_citation(self, key_prefix=key_prefix)

    def to_ris(self) -> str:
        """RIS rendering (one ``TY  - DATA`` entry per record)."""
        return ris.format_citation(self)

    def to_xml(self) -> str:
        """XML rendering."""
        return xmlfmt.format_citation(self)

    def to_json(self) -> str:
        """JSON rendering."""
        return jsonfmt.format_citation(self)

    def to_csl_json(self, id_prefix: str = "datacite") -> str:
        """CSL-JSON rendering (Zotero / Pandoc compatible ``dataset`` items)."""
        return csl.format_citation(self, id_prefix=id_prefix)

    # -- dunder --------------------------------------------------------------------
    def __iter__(self) -> Iterator[CitationRecord]:
        return iter(self.sorted_records())

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Citation):
            return NotImplemented
        return self.records == other.records and self.version == other.version

    def __repr__(self) -> str:
        extra = f", version={self.version!r}" if self.version else ""
        return f"Citation({len(self.records)} records, size={self.size()}{extra})"
