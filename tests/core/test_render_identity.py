"""Every format renders byte-for-byte as a memo-free reference does.

The formatters keep each record's sort key and rendered fragments on the
record, the aggregate expression keeps its text, and JSON is spliced from
per-record fragments.  The reference below shares none of that: it orders
records by the ``repr`` of their sorted items, renders the aggregate's text
from its operands, builds BibTeX entries and JSON payloads itself and encodes
JSON with one ``json.dumps(..., indent=2, sort_keys=True)``.  Only the
record-level renderers that keep no memo (text, RIS, XML, CSL) are reused.

Each entry of a hot-style catalog (every GtoPdb example query, as submitted
and alpha-renamed, in both modes, served through one service) is rendered
cold, again, and through the renamed variant, whose citation shares the
records and expression of the cached result.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CitationEngine, CitationService
from repro.api.envelope import CitationRequest
from repro.core.citation import Citation
from repro.core.expression import Aggregate, CitationAtom
from repro.core.formatter import csl, jsonfmt, ris, text, xmlfmt
from repro.core.record import CitationRecord
from repro.workloads import gtopdb

FORMATS = ("text", "bibtex", "ris", "xml", "json", "csl_json")


# -- the reference renderer ----------------------------------------------------
def _ordered(citation: Citation) -> list[CitationRecord]:
    return sorted(
        citation.records,
        key=lambda record: sorted(record.as_dict().items(), key=repr).__repr__(),
    )


def _symbolic(citation: Citation) -> str:
    expression = citation.expression
    if isinstance(expression, Aggregate):
        return "Agg[" + ", ".join(str(o) for o in expression.operands) + "]"
    return str(expression)


def _bibtex_escape(value: object) -> str:
    return str(value).replace("{", "\\{").replace("}", "\\}")


def _bibtex_entry(record: CitationRecord, key: str, version: str | None) -> str:
    field_map = {
        "title": "title",
        "source": "howpublished",
        "publisher": "publisher",
        "year": "year",
        "url": "url",
        "identifier": "note",
        "version": "edition",
    }
    fields = record.as_dict()
    lines = [f"@misc{{{key},"]
    people = fields.get("authors") or fields.get("contributors")
    if people is not None:
        names = people if isinstance(people, tuple) else (people,)
        lines.append(f"  author = {{{' and '.join(_bibtex_escape(n) for n in names)}}},")
    for source_field, bibtex_field in field_map.items():
        if source_field in fields:
            lines.append(f"  {bibtex_field} = {{{_bibtex_escape(fields[source_field])}}},")
    if "parameters" in fields:
        rendered = ", ".join(f"{k}={v}" for k, v in fields["parameters"])
        lines.append(f"  note = {{parameters: {_bibtex_escape(rendered)}}},")
    hidden = set(field_map) | {"authors", "contributors", "view", "parameters"}
    extras = sorted((k, v) for k, v in fields.items() if k not in hidden)
    if extras:
        rendered = "; ".join(f"{k}: {v}" for k, v in extras)
        lines.append(f"  annote = {{{_bibtex_escape(rendered)}}},")
    if version and "version" not in fields:
        lines.append(f"  edition = {{{_bibtex_escape(version)}}},")
    lines.append("}")
    return "\n".join(lines)


def _bibtex(citation: Citation) -> str:
    entries = []
    for index, record in enumerate(_ordered(citation), start=1):
        fields = record.as_dict()
        stem = fields.get("view") or fields.get("title") or "record"
        slug = "".join(c for c in str(stem) if c.isascii() and c.isalnum())[:24] or "entry"
        entries.append(_bibtex_entry(record, f"datacite_{slug}_{index}", citation.version))
    return "\n\n".join(entries)


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _json_payload(citation: Citation) -> dict:
    records = []
    for record in _ordered(citation):
        fields = {}
        for key, value in record.as_dict().items():
            if key == "parameters" and isinstance(value, tuple):
                fields[key] = {str(k): _jsonable(v) for k, v in value}
            else:
                fields[key] = _jsonable(value)
        records.append(fields)
    payload: dict[str, object] = {
        "records": records,
        "size": sum(record.size() for record in citation.records),
    }
    if citation.version:
        payload["version"] = citation.version
    if citation.timestamp:
        payload["timestamp"] = citation.timestamp
    if citation.query_text:
        payload["query"] = citation.query_text
    if citation.expression is not None:
        payload["expression"] = _symbolic(citation)
    return payload


def _xml_attribute(name: str, value: str) -> str:
    entities = {'"': "&quot;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
    return f'{name}="{escape(value, entities)}"'


def _xml(citation: Citation) -> str:
    attributes = ""
    if citation.version:
        attributes += " " + _xml_attribute("version", citation.version)
    if citation.timestamp:
        attributes += " " + _xml_attribute("timestamp", citation.timestamp)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', f"<citation{attributes}>"]
    if citation.query_text:
        lines.append(f"  <query>{escape(citation.query_text)}</query>")
    if citation.expression is not None:
        lines.append(f"  <expression>{escape(_symbolic(citation))}</expression>")
    lines.extend(xmlfmt.format_record(record) for record in _ordered(citation))
    lines.append("</citation>")
    return "\n".join(lines)


def _text(citation: Citation) -> str:
    lines = [text.format_record(record) for record in _ordered(citation)]
    suffix = []
    if citation.version:
        suffix.append(f"Database version: {citation.version}")
    if citation.timestamp:
        suffix.append(f"Accessed: {citation.timestamp}")
    if citation.query_text:
        suffix.append(f"Query: {citation.query_text}")
    return "\n".join([line for line in lines if line] + suffix)


def _csl(citation: Citation) -> str:
    items = []
    for index, record in enumerate(_ordered(citation), start=1):
        item = csl.record_to_csl(record, f"datacite-{index}")
        if citation.version and "version" not in item:
            item["version"] = citation.version
        if citation.timestamp:
            item["accessed"] = {"literal": citation.timestamp}
        items.append(item)
    return json.dumps(items, indent=2, sort_keys=True)


REFERENCE = {
    "text": _text,
    "bibtex": _bibtex,
    "ris": lambda c: "\n".join(ris.format_record(r) for r in _ordered(c)),
    "xml": _xml,
    "json": lambda c: json.dumps(_json_payload(c), indent=2, sort_keys=True),
    "csl_json": _csl,
}


def _assert_renders_as_reference(citation: Citation, label: str) -> None:
    for fmt in FORMATS:
        rendered = getattr(citation, f"to_{fmt}")()
        assert rendered == REFERENCE[fmt](citation), f"{label}: {fmt} differs"


# -- the hot-style catalog -------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    database = gtopdb.generate(families=12, targets_per_family=3, ligands=20, seed=11)
    engine = CitationEngine(database, gtopdb.citation_views(extended=True))
    service = CitationService(engine)
    yield service
    service.close()


@pytest.mark.parametrize("mode", ["formal", "economical"])
@pytest.mark.parametrize("query", gtopdb.example_queries(), ids=lambda q: q.name)
def test_catalog_entry_renders_as_reference(service, query, mode):
    first = service.submit(CitationRequest(query=str(query), mode=mode))
    renamed = service.submit(CitationRequest(query=str(query.rename_apart("_1")), mode=mode))
    assert first.ok and renamed.ok and renamed.cached
    assert renamed.citation.records is first.citation.records
    assert renamed.citation.expression is first.citation.expression
    _assert_renders_as_reference(first.citation, "cold")
    _assert_renders_as_reference(first.citation, "second render")
    _assert_renders_as_reference(renamed.citation, "renamed variant")
    pinned = renamed.citation.with_fixity('v"7 & co', '2017-05-14 "edition"')
    assert pinned.records is first.citation.records
    _assert_renders_as_reference(pinned, "with fixity")


def test_large_catalog_citation_is_exercised(service):
    q5 = next(q for q in gtopdb.example_queries() if q.name == "Q5")
    response = service.submit(CitationRequest(query=str(q5)))
    assert response.citation.record_count() > 30


# -- spliced JSON over random records --------------------------------------------
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
    | st.sampled_from(["", "\n", '"', 'a "quoted"\nline', "ünïcødé ✓", "\\"])
)
_values = st.recursive(
    _scalars, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=6
)
_field_names = st.text(min_size=1, max_size=8) | st.sampled_from(
    ["title", "authors", "version", "view", "year", "url"]
)
_records = st.builds(
    lambda fields, parameters: CitationRecord(
        {**fields, **({"parameters": parameters} if parameters else {})}
    ),
    st.dictionaries(_field_names.filter(lambda n: n != "parameters"), _values, max_size=5),
    st.dictionaries(st.text(min_size=1, max_size=5), _scalars, max_size=3),
)
_metadata = st.none() | st.text(max_size=12) | st.sampled_from(['v"2 & co', "line\nbreak"])


@given(
    records=st.lists(_records, max_size=6),
    version=_metadata,
    timestamp=_metadata,
    query_text=_metadata,
    with_expression=st.booleans(),
)
def test_spliced_json_equals_json_dumps(records, version, timestamp, query_text, with_expression):
    expression = None
    if with_expression:
        expression = Aggregate([CitationAtom(f"V{i}", {"p": i}) for i in range(len(records))])
    citation = Citation(
        records,
        expression=expression,
        query_text=query_text,
        version=version,
        timestamp=timestamp,
    )
    expected = json.dumps(jsonfmt.citation_payload(citation), indent=2, sort_keys=True)
    assert citation.to_json() == expected
    assert citation.to_json() == expected  # served from the fragments
    assert expected == json.dumps(_json_payload(citation), indent=2, sort_keys=True)
