"""Citation views: view query + citation queries + citation function.

A *citation view* (paper, Section 2) is specified by the database owner and
consists of

* a view query ``V``, optionally λ-parameterized (parameters must appear in
  the head),
* one or more citation queries ``CV`` sharing the same parameters, which pull
  the snippets of information to include in the citation, and
* a citation function ``FV`` that turns the citation-query answers into a
  citation (here: a :class:`~repro.core.record.CitationRecord`).

Tuples of the view that agree on all parameter values share a citation;
tuples that disagree on some parameter value may have different citations.

The citation of one valuation is ``FV(CV(p̄))``.  It is computed set at a
time: :meth:`CitationView.snippet_index` evaluates every citation query once
with its λ-variables left free (they are head variables, so every answer row
carries its valuation) and groups the answer rows by λ-tuple.  A record is
then a dictionary lookup into that index plus one call of the citation
function, so a view's records cost one evaluation per citation query per
database generation rather than one per valuation.  A valuation with no
answer rows slices to an empty snippet; so does one that a λ-variable's
equality atom (``FID = 1``) rules out.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NamedTuple

from repro.errors import CitationError
from repro.core.record import CitationRecord
from repro.query.ast import ConjunctiveQuery, Variable
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.rewriting.view import View

#: Signature of a citation function: (parameter values, snippet results) -> record.
CitationFunction = Callable[[Mapping[str, object], Mapping[str, Relation]], CitationRecord]


class SnippetGroups(NamedTuple):
    """The answer of one citation query, grouped by λ-valuation.

    ``groups`` maps the tuple of values of ``parameters`` (in that order) to
    the answer rows carrying them.  ``schema`` names a λ column after its
    parameter, so a citation function can tell snippet columns from the
    parameter values it is also given.
    """

    schema: RelationSchema
    parameters: tuple[str, ...]
    groups: Mapping[tuple, list[tuple]]

    def slice(self, parameter_values: Mapping[str, object]) -> Relation:
        """The answer rows whose λ columns equal *parameter_values*."""
        key = tuple(parameter_values[name] for name in self.parameters)
        return Relation(self.schema, self.groups.get(key, ()))


#: Citation query name -> its grouped answer: one view at one generation.
SnippetIndex = Mapping[str, SnippetGroups]


class DefaultCitationFunction:
    """A configurable default citation function.

    It flattens the snippet results into record fields:

    * every non-parameter head attribute of every citation query becomes a
      field whose value is the (sorted) tuple of distinct values returned —
      collapsed to a scalar when there is exactly one;
    * parameter values are recorded under the ``parameters`` field;
    * fixed ``constants`` (title, publisher, year, ...) are added verbatim;
    * ``field_map`` renames snippet attributes to citation fields (e.g.
      ``{"PName": "contributors"}``).
    """

    def __init__(
        self,
        constants: Mapping[str, object] | None = None,
        field_map: Mapping[str, str] | None = None,
    ) -> None:
        self.constants = dict(constants or {})
        self.field_map = dict(field_map or {})

    def __call__(
        self,
        parameter_values: Mapping[str, object],
        snippet_results: Mapping[str, Relation],
    ) -> CitationRecord:
        fields: dict[str, object] = dict(self.constants)
        if parameter_values:
            fields["parameters"] = dict(parameter_values)
        for relation in snippet_results.values():
            for attribute in relation.schema.attribute_names:
                if attribute in parameter_values:
                    continue
                values = sorted(relation.column(attribute), key=repr)
                if not values:
                    continue
                field_name = self.field_map.get(attribute, attribute)
                value: object = values[0] if len(values) == 1 else tuple(values)
                if field_name in fields and fields[field_name] != value:
                    existing = fields[field_name]
                    existing_tuple = existing if isinstance(existing, tuple) else (existing,)
                    value_tuple = value if isinstance(value, tuple) else (value,)
                    value = existing_tuple + tuple(
                        v for v in value_tuple if v not in existing_tuple
                    )
                fields[field_name] = value
        return CitationRecord(fields)

    def __repr__(self) -> str:
        return f"DefaultCitationFunction(constants={self.constants}, field_map={self.field_map})"


class CitationView:
    """A view query together with its citation queries and citation function."""

    def __init__(
        self,
        view_query: ConjunctiveQuery | str,
        citation_queries: Sequence[ConjunctiveQuery | str] = (),
        citation_function: CitationFunction | None = None,
        description: str = "",
    ) -> None:
        self.view = View(_as_query(view_query))
        self.citation_queries: tuple[ConjunctiveQuery, ...] = tuple(
            _as_query(q) for q in citation_queries
        )
        self.citation_function: CitationFunction = citation_function or DefaultCitationFunction()
        self.description = description
        self._validate()

    # -- validation -----------------------------------------------------------
    def _validate(self) -> None:
        view_params = {p.name for p in self.view.parameters}
        for citation_query in self.citation_queries:
            cq_params = {p.name for p in citation_query.parameters}
            if not cq_params <= view_params:
                raise CitationError(
                    f"citation query {citation_query.name!r} of view {self.name!r} uses "
                    f"parameters {sorted(cq_params - view_params)} that the view does not declare"
                )

    # -- introspection -----------------------------------------------------------
    @property
    def name(self) -> str:
        """The view name."""
        return self.view.name

    @property
    def query(self) -> ConjunctiveQuery:
        """The defining view query."""
        return self.view.query

    @property
    def parameters(self) -> tuple[Variable, ...]:
        """λ-parameters of the view."""
        return self.view.parameters

    @property
    def is_parameterized(self) -> bool:
        """``True`` when the view declares λ-parameters."""
        return bool(self.view.parameters)

    def parameter_names(self) -> tuple[str, ...]:
        """Names of the λ-parameters."""
        return tuple(p.name for p in self.view.parameters)

    # -- citation construction ------------------------------------------------------
    def snippet_index(self, database: Database) -> SnippetIndex:
        """Evaluate every citation query once and group its answer by λ-tuple.

        The index serves the snippets of every valuation of this view against
        *database* as it is now; it is stale once the database changes.
        """
        evaluator = QueryEvaluator(database)
        return {
            citation_query.name: _group_answer(
                citation_query, evaluator.evaluate(citation_query.without_parameters())
            )
            for citation_query in self.citation_queries
        }

    def snippet_results(
        self,
        database: Database,
        parameter_values: Mapping[str, object] | None = None,
        index: SnippetIndex | None = None,
    ) -> dict[str, Relation]:
        """The answer of every citation query under one parameter valuation.

        Slices *index* (a :meth:`snippet_index` of *database*), or a one-off
        index when none is passed.
        """
        parameter_values = dict(parameter_values or {})
        missing = {
            p.name for citation_query in self.citation_queries for p in citation_query.parameters
        } - parameter_values.keys()
        if missing:
            raise CitationError(f"view {self.name!r}: missing parameter values {sorted(missing)}")
        if index is None:
            index = self.snippet_index(database)
        return {name: groups.slice(parameter_values) for name, groups in index.items()}

    def citation_for(
        self,
        database: Database,
        parameter_values: Mapping[str, object] | None = None,
        index: SnippetIndex | None = None,
    ) -> CitationRecord:
        """Build the citation record for one parameter valuation.

        This is ``FV(CV(p1, ..., pn))`` in the paper's notation: the snippets
        of the valuation are sliced from *index* (see :meth:`snippet_index`;
        a one-off index of *database* when none is passed) and the citation
        function turns them into a record.  The record also carries the view
        name and the parameter values so that downstream formatting can show
        which citable unit it refers to.
        """
        parameter_values = dict(parameter_values or {})
        snippets = self.snippet_results(database, parameter_values, index)
        record = self.citation_function(parameter_values, snippets)
        return record.with_fields(view=self.name)

    def covers_parameters(self, parameter_values: Mapping[str, object]) -> bool:
        """``True`` when values are supplied for all λ-parameters."""
        return set(self.parameter_names()) <= set(parameter_values)

    def __repr__(self) -> str:
        return f"CitationView({self.view.query}, {len(self.citation_queries)} citation queries)"


def _as_query(query: ConjunctiveQuery | str) -> ConjunctiveQuery:
    if isinstance(query, ConjunctiveQuery):
        return query
    return parse_query(query)


def _group_answer(citation_query: ConjunctiveQuery, answer: Relation) -> SnippetGroups:
    """Group *answer*, the answer of *citation_query* with free λ-variables."""
    key_positions = [citation_query.head_terms.index(p) for p in citation_query.parameters]
    groups: dict[tuple, list[tuple]] = {}
    for row in answer.rows:
        groups.setdefault(tuple(row[p] for p in key_positions), []).append(row)
    return SnippetGroups(
        answer.schema, tuple(p.name for p in citation_query.parameters), groups
    )


def views_of(citation_views: Iterable[CitationView]) -> list[View]:
    """Extract the relational views from a collection of citation views."""
    return [citation_view.view for citation_view in citation_views]
