"""Engine citation records against the per-valuation reference.

Every record the engine serves is sliced from a snippet index built once per
view and generation; :mod:`record_oracle` recomputes each one on its own.
The two must agree by ``==`` and by ``repr`` (so formatted output agrees
byte for byte) for every valuation present in the views, for absent keys,
after inserts and deletes, and through incremental maintenance.
"""

from __future__ import annotations

import pytest

from record_oracle import reference_record, valuations
from repro import CitationEngine, IncrementalCitationMaintainer
from repro.workloads import drugbank, gtopdb, reactome


def _assert_matches_reference(engine: CitationEngine) -> int:
    checked = 0
    for citation_view in engine.citation_views:
        for values in valuations(engine, citation_view):
            record = engine.citation_record(citation_view.name, values)
            expected = reference_record(citation_view, engine.database, values)
            assert record == expected, (citation_view.name, values)
            assert repr(record) == repr(expected), (citation_view.name, values)
            checked += 1
    return checked


@pytest.fixture
def gtopdb_engine(small_gtopdb):
    return CitationEngine(small_gtopdb, gtopdb.citation_views(extended=True))


WORKLOADS = {
    "gtopdb-extended": (
        lambda: gtopdb.generate(families=20, targets_per_family=2, ligands=30, seed=3),
        lambda: gtopdb.citation_views(extended=True),
    ),
    "reactome": (
        lambda: reactome.generate(pathways=8, reactions_per_pathway=3, seed=3),
        reactome.citation_views,
    ),
    "drugbank": (
        lambda: drugbank.generate(drugs=15, proteins=10, interactions=15, seed=3),
        drugbank.citation_views,
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_valuation_matches_reference(workload):
    make_database, make_views = WORKLOADS[workload]
    engine = CitationEngine(make_database(), make_views())
    views = len(engine.citation_views)
    # Each view contributes its present valuations plus two absent keys.
    assert _assert_matches_reference(engine) > 2 * views


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_record_carries_a_lambda_column(workload):
    # λ columns are named after their parameter, which the default citation
    # function skips: the parameter value shows once, under "parameters".
    make_database, make_views = WORKLOADS[workload]
    engine = CitationEngine(make_database(), make_views())
    for citation_view in engine.citation_views:
        for values in valuations(engine, citation_view):
            record = engine.citation_record(citation_view.name, values)
            assert not [field for field in record if field.startswith("const_")]
            assert not set(values) & set(record)


def test_records_match_reference_after_inserts(gtopdb_engine):
    _assert_matches_reference(gtopdb_engine)
    database = gtopdb_engine.database
    database.insert("Family", (9001, "Drifted", "inserted family"))
    database.insert("Committee", (9001, "N. Newcomer"))
    database.insert("Committee", (1, "A. Latecomer"))
    database.insert("Target", (9002, 9001, "Drifted target", "GPCR"))
    database.insert("Contributor", (9002, "T. Newcomer"))
    _assert_matches_reference(gtopdb_engine)
    assert "A. Latecomer" in repr(gtopdb_engine.citation_record("V1", {"FID": 1}))


def test_records_match_reference_after_deletes(gtopdb_engine):
    _assert_matches_reference(gtopdb_engine)
    database = gtopdb_engine.database
    committee = sorted(database.relation("Committee").rows)[:3]
    contributors = sorted(database.relation("Contributor").rows)[:3]
    for relation, rows in (("Committee", committee), ("Contributor", contributors)):
        for row in rows:
            assert database.delete(relation, row)
    _assert_matches_reference(gtopdb_engine)


def test_maintained_records_match_reference(gtopdb_engine):
    query = gtopdb.example_queries()[4]  # Q5: targets with their families (V1, V4)
    maintainer = IncrementalCitationMaintainer(gtopdb_engine, query)
    database = gtopdb_engine.database
    first_target = min(database.relation("Target").rows)
    maintainer.insert("Committee", (1, "M. Maintained"))
    maintainer.insert("Contributor", (first_target[0], "C. Maintained"))
    maintainer.delete("Committee", max(database.relation("Committee").rows))
    maintainer.check_consistency()
    atoms = [
        atom
        for tuple_citation in maintainer.result.tuple_citations
        for atom in tuple_citation.expression.atoms()
    ]
    assert {atom.view_name for atom in atoms} >= {"V1", "V4"}
    views = {citation_view.name: citation_view for citation_view in gtopdb_engine.citation_views}
    for atom in atoms:
        expected = reference_record(views[atom.view_name], database, atom.parameter_values)
        assert atom.record == expected
        assert repr(atom.record) == repr(expected)
    assert any("M. Maintained" in repr(atom.record) for atom in atoms)
