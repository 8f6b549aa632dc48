"""Evaluation of conjunctive queries over a relational database.

Two entry points matter for the citation model:

* :func:`evaluate` — the ordinary set-semantics answer of a query, returned
  as a :class:`~repro.relational.relation.Relation`;
* :func:`evaluate_with_bindings` — for every output tuple, the list of
  *all* bindings (valuations of the query's variables) that produce it.
  Definition 2.2 of the paper combines one citation per binding with the
  alternative-use operator ``+``, so the engine needs the full binding set.

Evaluation runs a compiled join program (:mod:`repro.query.compiler`): the
atom order, variable→slot assignment and per-atom bound-position accessors
are fixed once at compile time, relations are resolved once per evaluation,
and bound-position probes use hash indexes — over database relations *and*
over ``extra_relations`` such as materialised views, via an
:class:`~repro.relational.index.IndexManager`.  The evaluator keeps no
per-query state: it compiles per call unless the caller passes a program in
explicitly.  The citation engine does that from its compiled plans, which is
how the serving layer amortises compilation across requests.

Every evaluation runs serially in the calling thread; the service layer's
request pool is where concurrency lives.  The differential property suite
(``tests/property/test_evaluator_equivalence.py``) checks the program
against a brute-force reference, including held programs across data drift.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping

from repro.errors import QueryError, UnknownRelationError
from repro.observability import NULL_SPAN, current_fingerprint, get_tracer
from repro.resilience.deadline import current_deadline
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import JoinProfile, JoinProgram, compile_query
from repro.query.stats import EvaluationMetrics
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

Binding = dict[Variable, object]


class QueryEvaluator:
    """Evaluates conjunctive queries against a :class:`Database`.

    The evaluator may also be given *extra relations* (e.g. materialised
    views) that are not part of the database schema; atoms whose predicate
    matches an extra relation are evaluated against it.  An external
    :class:`~repro.relational.index.IndexManager` may be supplied to share
    view indexes across evaluator instances (the citation engine does this);
    otherwise the evaluator owns a private one.  With *metrics*, every
    evaluation's time is recorded there (the engine threads one
    :class:`~repro.query.stats.EvaluationMetrics` through every evaluator it
    builds).
    """

    def __init__(
        self,
        database: Database,
        extra_relations: Mapping[str, Relation] | None = None,
        use_indexes: bool = True,
        index_manager: IndexManager | None = None,
        metrics: EvaluationMetrics | None = None,
    ) -> None:
        self.database = database
        self.extra_relations = dict(extra_relations or {})
        self.use_indexes = use_indexes
        # Not `or`: an IndexManager with no entries yet is len() == 0, falsy.
        self.index_manager = (
            index_manager if index_manager is not None else IndexManager(database)
        )
        self.metrics = metrics

    # -- relation resolution ------------------------------------------------
    def _relation_for(self, predicate: str) -> Relation:
        if predicate in self.extra_relations:
            return self.extra_relations[predicate]
        if predicate in self.database:
            return self.database.relation(predicate)
        raise UnknownRelationError(predicate)

    def _resolve_relations(self, query: ConjunctiveQuery) -> dict[str, Relation]:
        """Resolve every body predicate exactly once, checking arities."""
        relations: dict[str, Relation] = {}
        for atom in query.body:
            relation = relations.get(atom.predicate)
            if relation is None:
                relation = self._relation_for(atom.predicate)
                relations[atom.predicate] = relation
            if relation.schema.arity != atom.arity:
                raise QueryError(
                    f"atom {atom} has arity {atom.arity} but relation "
                    f"{atom.predicate!r} has arity {relation.schema.arity}"
                )
        return relations

    # -- compilation --------------------------------------------------------
    def compile(self, query: ConjunctiveQuery) -> JoinProgram:
        """The compiled join program for *query* (compiled afresh per call)."""
        return compile_query(query, self._resolve_relations(query))

    # -- core join ------------------------------------------------------------
    def _frames(
        self,
        program: JoinProgram,
        relations: Mapping[str, Relation],
        profile: JoinProfile | None = None,
    ) -> Iterator[tuple]:
        """Run *program*; every scanned row is a deadline checkpoint."""
        deadline = current_deadline()
        cancel = deadline.checker("join") if deadline is not None else None
        return program.run_frames(
            relations, self.index_manager, self.use_indexes, profile, cancel=cancel
        )

    # -- tracing ---------------------------------------------------------------
    @staticmethod
    def _evaluation_span(query: ConjunctiveQuery, program: JoinProgram):
        """An open ``query.evaluate`` span plus the profile to fill (or no-ops).

        Returns ``(span, profile)``; callers gate every further attribute
        write on ``profile is not None``, so the disabled path pays exactly
        one ``get_tracer()`` call, one branch, and a no-op context manager.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return NULL_SPAN, None
        return tracer.span("query.evaluate", query=query.name), JoinProfile(len(program.steps))

    @staticmethod
    def _annotate_span(span, program: JoinProgram, profile: JoinProfile) -> None:
        """Copy one profiled run's counters onto its evaluation span."""
        span.set_attribute("results", profile.results)
        for position, step in enumerate(program.steps):
            span.child(
                "join.step",
                step=position,
                predicate=step.predicate,
                relation_rows=profile.relation_rows[position],
                rows_scanned=profile.rows_scanned[position],
                frames_out=profile.frames_out[position],
            )

    def _record(self, elapsed: float) -> None:
        if self.metrics is not None:
            self.metrics.record(elapsed, current_fingerprint())

    def bindings(
        self, query: ConjunctiveQuery, program: JoinProgram | None = None
    ) -> Iterator[Binding]:
        """Yield every satisfying assignment of the query's variables."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("bindings.start")
        relations = self._resolve_relations(query)
        if program is None:
            program = compile_query(query, relations)
        variables = program.variables
        for frame in self._frames(program, relations):
            yield dict(zip(variables, frame))

    # -- public API -------------------------------------------------------------
    def output_tuple(self, query: ConjunctiveQuery, binding: Binding) -> tuple:
        """Project a binding onto the query's head terms."""
        out = []
        for term in query.head_terms:
            if isinstance(term, Constant):
                out.append(term.value)
            else:
                assert isinstance(term, Variable)
                if term not in binding:
                    raise QueryError(
                        f"binding does not cover head variable {term.name!r} of {query.name!r}"
                    )
                out.append(binding[term])
        return tuple(out)

    def evaluate(self, query: ConjunctiveQuery) -> Relation:
        """Evaluate *query* and return its answer relation (set semantics)."""
        schema = result_schema(query)
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        program = compile_query(query, relations)
        span, profile = self._evaluation_span(query, program)
        output_row = program.output_row
        with span:
            started = time.perf_counter()
            answers = {output_row(frame) for frame in self._frames(program, relations, profile)}
            elapsed = time.perf_counter() - started
            if profile is not None:
                span.set_attribute("answers", len(answers))
                self._annotate_span(span, program, profile)
        self._record(elapsed)
        return Relation(schema, answers)

    def evaluate_with_bindings(
        self, query: ConjunctiveQuery, program: JoinProgram | None = None
    ) -> dict[tuple, list[Binding]]:
        """Map every output tuple to the list of bindings producing it."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        if program is None:
            program = compile_query(query, relations)
        span, profile = self._evaluation_span(query, program)
        variables = program.variables
        output_row = program.output_row
        with span:
            started = time.perf_counter()
            out: dict[tuple, list[Binding]] = {}
            for frame in self._frames(program, relations, profile):
                out.setdefault(output_row(frame), []).append(dict(zip(variables, frame)))
            elapsed = time.perf_counter() - started
            if profile is not None:
                span.set_attribute("answers", len(out))
                self._annotate_span(span, program, profile)
        self._record(elapsed)
        return out

    def evaluate_parameterized(
        self,
        query: ConjunctiveQuery,
        parameter_values: Mapping[str | Variable, object],
    ) -> Relation:
        """Evaluate a parameterized query with its parameters instantiated.

        ``parameter_values`` maps parameter names (or variables) to constants;
        every parameter of the query must be covered.  The substituted
        constants become probe keys of the compiled program.
        """
        substitution: dict[Variable, Term] = {}
        for param in query.parameters:
            if param in parameter_values:
                value = parameter_values[param]
            elif param.name in parameter_values:
                value = parameter_values[param.name]
            else:
                raise QueryError(
                    f"missing value for parameter {param.name!r} of query {query.name!r}"
                )
            substitution[param] = Constant(value)
        return self.evaluate(query.substitute(substitution))


def result_schema(query: ConjunctiveQuery) -> RelationSchema:
    """Build a relation schema for a query's answer.

    Attribute names follow the head terms; constants get positional names.
    """
    names: list[str] = []
    seen: set[str] = set()
    for position, term in enumerate(query.head_terms):
        if isinstance(term, Variable):
            base = term.name
        else:
            base = f"const_{position}"
        name = base
        counter = 1
        while name in seen:
            counter += 1
            name = f"{base}_{counter}"
        seen.add(name)
        names.append(name)
    return RelationSchema(query.name, [Attribute(n, object) for n in names], key=None)


def evaluate(query: ConjunctiveQuery, database: Database, **kwargs: object) -> Relation:
    """Module-level convenience wrapper around :class:`QueryEvaluator`."""
    return QueryEvaluator(database, **kwargs).evaluate(query)


def evaluate_with_bindings(
    query: ConjunctiveQuery, database: Database, **kwargs: object
) -> dict[tuple, list[Binding]]:
    """Module-level convenience wrapper returning all bindings per tuple."""
    return QueryEvaluator(database, **kwargs).evaluate_with_bindings(query)
