"""Reference citation records: one substitute-and-evaluate per λ-valuation.

This is the direct reading of ``FV(CV(p̄))`` (paper, Section 2) that the
engine's set-at-a-time snippet index must agree with: instantiate every
citation query of the view with the valuation, evaluate each instantiation
on its own, and hand the answers to the view's citation function.  It uses
only :mod:`repro.query` and the relation container, so it shares no code
with the index.

An instantiation that makes one of the query's equality atoms false has an
empty answer.  Instantiating turns the λ columns into constant columns; the
reference names them after their parameter again, as the citation function
sees them.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.query.ast import ConjunctiveQuery, Constant
from repro.query.evaluator import QueryEvaluator, result_schema
from repro.relational.relation import Relation

__all__ = ["ABSENT_KEYS", "reference_record", "reference_snippets", "valuations"]

#: Parameter values no generated instance holds, of both key types in use.
ABSENT_KEYS = (-1, "<absent>")


def reference_snippets(citation_view, database, parameter_values: Mapping[str, object]):
    """Citation query name -> its answer under *parameter_values*."""
    evaluator = QueryEvaluator(database)
    out = {}
    for citation_query in citation_view.citation_queries:
        mapping = {
            p: Constant(parameter_values[p.name]) for p in citation_query.parameters
        }
        satisfiable = all(
            mapping.get(eq.variable, eq.constant) == eq.constant
            for eq in citation_query.equalities
        )
        instantiated = ConjunctiveQuery(
            citation_query.head.substitute(mapping),
            [atom.substitute(mapping) for atom in citation_query.body],
            [eq for eq in citation_query.equalities if eq.variable not in mapping],
        )
        rows = evaluator.evaluate(instantiated).rows if satisfiable else ()
        out[citation_query.name] = Relation(result_schema(citation_query), rows)
    return out


def reference_record(citation_view, database, parameter_values: Mapping[str, object]):
    """The citation record of one valuation, computed from scratch."""
    values = dict(parameter_values)
    snippets = reference_snippets(citation_view, database, values)
    return citation_view.citation_function(values, snippets).with_fields(
        view=citation_view.name
    )


def valuations(engine, citation_view) -> Iterator[dict[str, object]]:
    """Every λ-valuation in the view's extent, then one absent key per type."""
    positions = citation_view.view.parameter_positions()
    extent = engine.view_relations()[citation_view.name]
    present = {
        tuple(row[position] for position in positions.values()) for row in extent.rows
    }
    for key in sorted(present, key=repr):
        yield dict(zip(positions, key))
    for absent in ABSENT_KEYS:
        yield dict.fromkeys(positions, absent)
