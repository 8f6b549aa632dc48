"""Tests for the citation formatters (text, BibTeX, RIS, XML, JSON)."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.core.citation import Citation
from repro.core.record import CitationRecord


@pytest.fixture
def citation():
    records = frozenset(
        {
            CitationRecord(
                {
                    "title": "Calcitonin",
                    "contributors": ("D. Hoyer", "A. Davenport"),
                    "source": "IUPHAR/BPS Guide to PHARMACOLOGY",
                    "view": "V1",
                    "parameters": {"FID": 11},
                }
            ),
            CitationRecord(
                {"title": "IUPHAR/BPS Guide to PHARMACOLOGY", "publisher": "IUPHAR/BPS", "view": "V2"}
            ),
        }
    )
    return Citation(
        records,
        query_text="Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
        version="3",
        timestamp="2017-05-14T00:00:00+00:00",
    )


class TestText:
    def test_contains_key_fields(self, citation):
        text = citation.to_text()
        assert "D. Hoyer" in text
        assert "IUPHAR/BPS Guide to PHARMACOLOGY" in text
        assert "Database version: 3" in text
        assert "Accessed: 2017" in text
        assert "Query:" in text

    def test_abbreviation_with_et_al(self):
        record = CitationRecord({"contributors": tuple(f"Person {i}" for i in range(10))})
        citation = Citation(frozenset({record}))
        text = citation.to_text(abbreviate_after=3)
        assert "et al." in text
        assert "Person 5" not in text

    def test_internal_view_field_not_rendered(self, citation):
        assert "V2" not in citation.to_text()

    def test_empty_citation_renders_metadata_only(self):
        assert Citation(frozenset()).to_text() == ""


class TestBibtex:
    def test_entries_per_record(self, citation):
        bibtex = citation.to_bibtex()
        assert bibtex.count("@misc{") == 2

    def test_author_field_joined_with_and(self, citation):
        bibtex = citation.to_bibtex()
        assert "D. Hoyer and A. Davenport" in bibtex

    def test_braces_escaped(self):
        record = CitationRecord({"title": "curly {braces}"})
        bibtex = Citation(frozenset({record})).to_bibtex()
        assert "\\{braces\\}" in bibtex

    def test_keys_are_unique(self, citation):
        bibtex = citation.to_bibtex(key_prefix="x")
        keys = [line.split("{")[1].rstrip(",") for line in bibtex.splitlines() if line.startswith("@misc")]
        assert len(keys) == len(set(keys))

    def test_version_becomes_edition_on_its_own_line(self):
        record = CitationRecord({"title": "T"})
        bibtex = Citation(frozenset({record}), version="7").to_bibtex(key_prefix="x")
        assert bibtex == "@misc{x_T_1,\n  title = {T},\n  edition = {7},\n}"

    def test_version_kept_when_title_mentions_edition(self):
        record = CitationRecord({"title": "Second edition of the guide"})
        bibtex = Citation(frozenset({record}), version="7").to_bibtex()
        assert "  title = {Second edition of the guide},\n  edition = {7},\n}" in bibtex

    def test_record_version_is_not_overridden(self):
        record = CitationRecord({"title": "T", "version": "3"})
        bibtex = Citation(frozenset({record}), version="7").to_bibtex()
        assert "edition = {3}" in bibtex
        assert "{7}" not in bibtex


class TestRis:
    def test_type_is_data(self, citation):
        ris = citation.to_ris()
        assert ris.count("TY  - DATA") == 2
        assert ris.count("ER  - ") == 2

    def test_contributors_become_au_lines(self, citation):
        assert "AU  - D. Hoyer" in citation.to_ris()

    def test_parameters_noted(self, citation):
        assert "parameters: FID=11" in citation.to_ris()


class TestXml:
    def test_well_formed(self, citation):
        root = ET.fromstring(citation.to_xml())
        assert root.tag == "citation"
        assert root.attrib["version"] == "3"
        assert len(root.findall("record")) == 2

    def test_escaping(self):
        record = CitationRecord({"title": "a < b & c"})
        root = ET.fromstring(Citation(frozenset({record})).to_xml())
        assert root.find("record/title").text == "a < b & c"

    def test_parameters_element(self, citation):
        root = ET.fromstring(citation.to_xml())
        parameters = root.findall("record/parameters/parameter")
        assert any(p.attrib["name"] == "FID" and p.text == "11" for p in parameters)

    def test_attribute_values_round_trip(self):
        name = 'say "hi"\tand\nbye & <go>'
        record = CitationRecord({"title": "T", "parameters": {name: 'a "b"'}})
        citation = Citation(
            frozenset({record}), version='v"2 & co', timestamp="2017-05-14 \"noon\"\r\n"
        )
        root = ET.fromstring(citation.to_xml())
        assert root.attrib == {
            "version": 'v"2 & co',
            "timestamp": '2017-05-14 "noon"\r\n',
        }
        (parameter,) = root.findall("record/parameters/parameter")
        assert parameter.attrib["name"] == name
        assert parameter.text == 'a "b"'


class TestJson:
    def test_round_trips_through_json(self, citation):
        payload = json.loads(citation.to_json())
        assert payload["version"] == "3"
        assert payload["size"] == citation.size()
        assert len(payload["records"]) == 2

    def test_parameters_become_object(self, citation):
        payload = json.loads(citation.to_json())
        parameterized = [r for r in payload["records"] if "parameters" in r]
        assert parameterized[0]["parameters"] == {"FID": 11}

    def test_contributors_become_list(self, citation):
        payload = json.loads(citation.to_json())
        with_contributors = [r for r in payload["records"] if "contributors" in r]
        assert isinstance(with_contributors[0]["contributors"], list)


class TestCitationObject:
    def test_size_and_record_count(self, citation):
        assert citation.record_count() == 2
        assert citation.size() >= 5

    def test_with_fixity(self, citation):
        pinned = citation.with_fixity("7", "2026-06-16")
        assert pinned.version == "7"
        assert pinned.records == citation.records

    def test_iteration_is_deterministic(self, citation):
        assert list(citation) == list(citation)

    def test_symbolic_empty_without_expression(self, citation):
        assert citation.symbolic() == ""
