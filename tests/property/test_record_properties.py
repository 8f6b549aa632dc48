"""Property: sliced citation records equal per-valuation evaluation.

Random citation views over the R/S world: a λ-parameterized view, one
citation query over a random body sharing its parameters (sometimes with a
λ-variable bound by an equality atom or repeated in the head) and sometimes
an unparameterized one.  For every valuation of the small value domain
(present or absent in the view) the engine's record must equal the
:mod:`record_oracle` reference, before and after random data drift.
"""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from record_oracle import reference_record
from strategies import apply_drift, drift_sequences, random_queries, small_databases, values
from repro import CitationEngine
from repro.core.citation_view import CitationView
from repro.query.ast import Atom, ConjunctiveQuery, Constant, EqualityAtom, Variable


@st.composite
def citation_views(draw) -> CitationView:
    query = draw(random_queries(predicates=("R", "S"), allow_constants=False, name="CV"))
    head_vars = [t for t in query.head_terms if isinstance(t, Variable)]
    parameters = tuple(
        dict.fromkeys(draw(st.lists(st.sampled_from(head_vars), min_size=1, max_size=2)))
    )
    head = query.head_terms
    if draw(st.booleans()):
        head += (parameters[0],)
    equalities = ()
    if draw(st.booleans()):
        equalities = (EqualityAtom(parameters[-1], Constant(draw(values()))),)
    citation_queries = [ConjunctiveQuery(Atom("CV", head), query.body, equalities, parameters)]
    if draw(st.booleans()):
        x, y = Variable("X"), Variable("Y")
        citation_queries.append(ConjunctiveQuery(Atom("CVall", (x,)), [Atom("S", (x, y))]))
    view = ConjunctiveQuery(Atom("W", parameters), query.body, (), parameters)
    return CitationView(view, citation_queries)


def _assert_matches_reference(engine: CitationEngine, citation_view: CitationView) -> None:
    names = citation_view.parameter_names()
    for key in itertools.product([-1, 0, 1, 2, 3], repeat=len(names)):
        valuation = dict(zip(names, key))
        record = engine.citation_record(citation_view.name, valuation)
        expected = reference_record(citation_view, engine.database, valuation)
        assert record == expected
        assert repr(record) == repr(expected)


@given(small_databases(), citation_views(), drift_sequences(relations=("R", "S")))
def test_sliced_records_match_per_valuation_reference(database, citation_view, ops):
    engine = CitationEngine(database, [citation_view])
    _assert_matches_reference(engine, citation_view)
    apply_drift(database, None, ops)
    _assert_matches_reference(engine, citation_view)
