"""Tests for citation views and the default citation function."""

import pytest

from record_oracle import reference_record
from repro import CitationEngine
from repro.core.citation_view import CitationView, DefaultCitationFunction, views_of
from repro.errors import CitationError
from repro.query.parser import parse_query
from repro.workloads import gtopdb


@pytest.fixture
def db():
    return gtopdb.paper_instance()


@pytest.fixture
def v1():
    return gtopdb.citation_views()[0]


@pytest.fixture
def v2():
    return gtopdb.citation_views()[1]


class TestConstruction:
    def test_accepts_textual_queries(self):
        view = CitationView(
            "V(FID, Text) :- FamilyIntro(FID, Text)",
            citation_queries=["CV(D) :- D = \"GtoPdb\""],
        )
        assert view.name == "V"
        assert not view.is_parameterized

    def test_parameter_names(self, v1):
        assert v1.parameter_names() == ("FID",)
        assert v1.is_parameterized

    def test_citation_query_parameters_must_be_declared_by_view(self):
        with pytest.raises(CitationError):
            CitationView(
                "V(FID, FName) :- Family(FID, FName, D)",
                citation_queries=["lambda FID. CV(FID, P) :- Committee(FID, P)"],
            )

    def test_views_of_extracts_relational_views(self):
        views = views_of(gtopdb.citation_views())
        assert [v.name for v in views] == ["V1", "V2", "V3"]


class TestSnippetEvaluation:
    def test_snippet_results_instantiate_parameters(self, db, v1):
        snippets = v1.snippet_results(db, {"FID": 11})
        assert snippets["CV1"].rows == {(11, "D. Hoyer"), (11, "A. Davenport")}

    def test_missing_parameter_raises(self, db, v1):
        with pytest.raises(CitationError):
            v1.snippet_results(db, {})
        with pytest.raises(CitationError):
            v1.citation_for(db, {}, v1.snippet_index(db))
        with pytest.raises(CitationError):
            CitationEngine(db, gtopdb.citation_views()).citation_record("V1", {})

    def test_unparameterized_view_needs_no_values(self, db, v2):
        snippets = v2.snippet_results(db)
        assert snippets["CV2"].rows == {(gtopdb.DATABASE_TITLE,)}


class TestSnippetIndex:
    def test_groups_answer_rows_by_lambda_tuple(self, db, v1):
        index = v1.snippet_index(db)
        assert list(index) == ["CV1", "CV1name"]
        committee = index["CV1"]
        assert committee.parameters == ("FID",)
        assert set(committee.groups[(11,)]) == {(11, "D. Hoyer"), (11, "A. Davenport")}
        assert committee.schema.attribute_names == ("FID", "PName")

    def test_absent_valuation_slices_to_empty_snippet(self, db, v1):
        snippets = v1.snippet_results(db, {"FID": 999}, v1.snippet_index(db))
        assert all(len(relation) == 0 for relation in snippets.values())
        assert snippets["CV1"].schema.attribute_names == ("FID", "PName")

    def test_lambda_variable_in_equality_atom(self, db):
        view = CitationView(
            "lambda FID. V(FID, N) :- Family(FID, N, D)",
            citation_queries=["lambda FID. CV(FID, N) :- Family(FID, N, D), FID = 11"],
        )
        index = view.snippet_index(db)
        assert view.citation_for(db, {"FID": 11}, index)["N"] == "Calcitonin"
        # Any other valuation makes the equality false: an empty snippet,
        # not an error.
        other = view.citation_for(db, {"FID": 12}, index)
        assert "N" not in other
        assert other == reference_record(view, db, {"FID": 12})

    def test_lambda_variable_repeated_in_head(self, db):
        view = CitationView(
            "lambda FID. V(FID, N) :- Family(FID, N, D)",
            citation_queries=["lambda FID. CV(FID, FID, N) :- Family(FID, N, D)"],
        )
        snippet = view.snippet_results(db, {"FID": 11})["CV"]
        assert snippet.schema.attribute_names == ("FID", "FID_2", "N")
        assert snippet.rows == {(11, 11, "Calcitonin")}
        assert view.citation_for(db, {"FID": 13})["N"] == "Adenosine"
        for fid in (11, 13, 999):
            assert view.citation_for(db, {"FID": fid}) == reference_record(view, db, {"FID": fid})


class TestCitationConstruction:
    def test_parameterized_citation_record(self, db, v1):
        record = v1.citation_for(db, {"FID": 11})
        assert record["contributors"] == ("A. Davenport", "D. Hoyer")
        assert record["title"] == "Calcitonin"
        assert record["view"] == "V1"
        assert record["parameters"] == (("FID", 11),)

    def test_different_parameters_give_different_citations(self, db, v1):
        assert v1.citation_for(db, {"FID": 11}) != v1.citation_for(db, {"FID": 12})

    def test_unparameterized_citation_is_constant(self, db, v2):
        record = v2.citation_for(db)
        assert record["title"] == gtopdb.DATABASE_TITLE
        assert record["publisher"] == "IUPHAR/BPS"

    def test_covers_parameters(self, v1, v2):
        assert v1.covers_parameters({"FID": 11})
        assert not v1.covers_parameters({})
        assert v2.covers_parameters({})


class TestDefaultCitationFunction:
    def test_constants_and_field_map(self, db):
        function = DefaultCitationFunction(
            constants={"publisher": "IUPHAR/BPS"}, field_map={"PName": "contributors"}
        )
        view = CitationView(
            parse_query("lambda FID. V(FID, FName, D) :- Family(FID, FName, D)"),
            citation_queries=[parse_query("lambda FID. CVx(FID, PName) :- Committee(FID, PName)")],
            citation_function=function,
        )
        record = view.citation_for(db, {"FID": 11})
        assert record["publisher"] == "IUPHAR/BPS"
        assert "A. Davenport" in record["contributors"]

    def test_single_value_collapses_to_scalar(self, db):
        view = CitationView(
            parse_query("lambda FID. V(FID, FName, D) :- Family(FID, FName, D)"),
            citation_queries=[
                parse_query("lambda FID. CVname(FID, FName) :- Family(FID, FName, D)")
            ],
        )
        record = view.citation_for(db, {"FID": 13})
        assert record["FName"] == "Adenosine"

    def test_empty_snippet_result_contributes_nothing(self, db):
        view = CitationView(
            parse_query("lambda FID. V(FID, FName, D) :- Family(FID, FName, D)"),
            citation_queries=[parse_query("lambda FID. CVc(FID, P) :- Committee(FID, P)")],
        )
        record = view.citation_for(db, {"FID": 999})
        assert "P" not in record

    def test_no_citation_queries_yields_constants_only(self, db):
        view = CitationView(
            parse_query("V(FID, Text) :- FamilyIntro(FID, Text)"),
            citation_function=DefaultCitationFunction(constants={"title": "Intros"}),
        )
        assert view.citation_for(db) == {"title": "Intros", "view": "V"}

    def test_conflicting_fields_are_collected(self):
        function = DefaultCitationFunction(constants={"title": "fixed"})
        from repro.relational.relation import Relation
        from repro.relational.schema import Attribute, RelationSchema

        snippet = Relation(
            RelationSchema("CV", [Attribute("title", object)]), [("other",)]
        )
        record = function({}, {"CV": snippet})
        assert set(record["title"]) == {"fixed", "other"}
