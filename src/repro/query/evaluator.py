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
per-query state: it compiles per call unless the caller passes a program,
its reduction and a warm prelude in explicitly.  The citation engine does
that from its compiled plans, which is how the serving layer amortises
compilation and warm prelude state across requests.

The evaluator has a **strategy knob** for how a program is executed:

* ``"program"`` — the plain nested-loop join program;
* ``"reduced"`` — the program behind its semi-join reduction prelude
  (:func:`~repro.query.compiler.reduce_program`): a Yannakakis bottom-up /
  top-down pass over the join tree for acyclic queries, plus sideways
  information passing for every query;
* ``"auto"`` (the default) — for α-acyclic multi-atom queries, ask the
  statistics-driven :class:`~repro.query.stats.CostModel` whether the
  prelude's expected dangling-tuple savings beat its linear passes; run
  whatever it picks.  A query passed a current warm
  :class:`~repro.query.compiler.PreludeCache` always runs reduced — the
  prelude costs nothing, so the cost model is only consulted cold.

Every evaluation runs serially in the calling thread; the service layer's
request pool is where concurrency lives.

All strategies produce identical answers and binding sets — the reduction
only removes rows that cannot contribute — which the differential property
suites (``tests/property/test_strategy_equivalence.py`` and
``tests/property/test_prelude_equivalence.py``) lock down.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping
from typing import Literal

from repro.errors import QueryError, UnknownRelationError
from repro.observability import NULL_SPAN, current_fingerprint, get_tracer
from repro.resilience.deadline import current_deadline
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import (
    JoinProfile,
    JoinProgram,
    PreludeCache,
    ReducedProgram,
    compile_query,
    reduce_program,
)
from repro.query.stats import (
    CostEstimate,
    CostModel,
    EvaluationMetrics,
    StatisticsCatalog,
)
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

Binding = dict[Variable, object]

Strategy = Literal["auto", "program", "reduced"]

STRATEGIES: tuple[Strategy, ...] = ("auto", "program", "reduced")


class QueryEvaluator:
    """Evaluates conjunctive queries against a :class:`Database`.

    The evaluator may also be given *extra relations* (e.g. materialised
    views) that are not part of the database schema; atoms whose predicate
    matches an extra relation are evaluated against it.  An external
    :class:`~repro.relational.index.IndexManager` may be supplied to share
    view indexes across evaluator instances (the citation engine does this);
    otherwise the evaluator owns a private one.  Likewise *statistics* /
    *cost_model* / *metrics* default to private instances but can be shared
    (the engine threads one :class:`~repro.query.stats.StatisticsCatalog`
    and one :class:`~repro.query.stats.EvaluationMetrics` through every
    evaluator it builds).
    """

    def __init__(
        self,
        database: Database,
        extra_relations: Mapping[str, Relation] | None = None,
        use_indexes: bool = True,
        index_manager: IndexManager | None = None,
        strategy: Strategy = "auto",
        statistics: StatisticsCatalog | None = None,
        cost_model: CostModel | None = None,
        metrics: EvaluationMetrics | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.database = database
        self.extra_relations = dict(extra_relations or {})
        self.use_indexes = use_indexes
        self.strategy: Strategy = strategy
        # Not `or`: an IndexManager with no entries yet is len() == 0, falsy.
        self.index_manager = (
            index_manager if index_manager is not None else IndexManager(database)
        )
        self.statistics = (
            statistics if statistics is not None else StatisticsCatalog(self.index_manager)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel(self.statistics)
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

    def reduce(self, query: ConjunctiveQuery) -> ReducedProgram:
        """The semi-join-reduced program for *query* (built afresh per call)."""
        return reduce_program(self.compile(query))

    # -- strategy selection --------------------------------------------------
    def select_strategy(
        self, query: ConjunctiveQuery
    ) -> Literal["program", "reduced"]:
        """The executor this evaluator would run *query* with right now.

        ``"program"`` and ``"reduced"`` are themselves; ``"auto"`` resolves
        through the cost model, so the answer can change as the data drifts.
        """
        relations = self._resolve_relations(query)
        program = compile_query(query, relations)
        # Pure introspection: resolve without recording picks or estimates,
        # so polling this for monitoring never skews the serving metrics.
        executor, _reason, _estimate = self._executor(
            relations, program, None, None, record=False
        )
        return "reduced" if isinstance(executor, ReducedProgram) else "program"

    def _executor(
        self,
        relations: Mapping[str, Relation],
        program: JoinProgram,
        reduced: ReducedProgram | None,
        strategy: Strategy | None,
        prelude: PreludeCache | None = None,
        record: bool = True,
    ) -> tuple[JoinProgram | ReducedProgram, str, CostEstimate | None]:
        """Resolve the strategy for one evaluation to a runnable program.

        Returns ``(executor, pick reason, cost estimate or None)`` — the
        reason and estimate feed the evaluation span's attributes, so an
        EXPLAIN trace shows not just what ran but why the resolver picked it.
        With ``record=False`` the resolution leaves no trace in
        :attr:`metrics` (introspection via :meth:`select_strategy`).
        """
        strategy = strategy or self.strategy
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "program":
            return self._picked(program, "forced", record)
        if strategy != "reduced":
            # Single-atom queries never pay for the analysis.  Multi-atom
            # ones do run join_forest + a cost estimate per resolution; both
            # are O(atoms²)/O(atoms) over the tiny compiled description, and
            # the estimate's statistics are version-cached in the catalog —
            # this is what keeps per-call compilation affordable (measured
            # low-microseconds per call).
            if len(program.steps) < 2:
                return self._picked(program, "single_atom", record)
        # The reduction must wrap exactly the program whose slot layout the
        # caller will project frames with — a reduction of another
        # (differently ordered) compile of the same query must not run.
        if reduced is None or reduced.program is not program:
            reduced = reduce_program(program)
        if strategy == "reduced":
            return self._picked(reduced, "forced", record)
        if not reduced.acyclic:
            return self._picked(program, "cyclic", record)
        # Warm state makes the prelude free: always run reduced on a hit.
        if (
            prelude is not None
            and prelude.reduced is reduced
            and prelude.is_warm(relations)
        ):
            return self._picked(reduced, "warm_prelude", record)
        estimate = self.cost_model.estimate(reduced, relations)
        if record and self.metrics is not None:
            self.metrics.record_estimate(estimate)
        if estimate.prefers_reduction:
            return self._picked(reduced, "cost_model", record, estimate)
        return self._picked(program, "cost_model", record, estimate)

    def _picked(
        self,
        executor: JoinProgram | ReducedProgram,
        reason: str,
        record: bool = True,
        estimate: CostEstimate | None = None,
    ) -> tuple[JoinProgram | ReducedProgram, str, CostEstimate | None]:
        if record and self.metrics is not None:
            kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
            self.metrics.record_pick(kind, reason)
        return executor, reason, estimate

    # -- core join ------------------------------------------------------------
    def _frames_for(
        self,
        executor: JoinProgram | ReducedProgram,
        relations: Mapping[str, Relation],
        prelude: PreludeCache | None,
        profile: JoinProfile | None = None,
        cancel=None,
    ) -> Iterator[tuple]:
        """Run *executor*, threading warm-prelude state into reduced runs.

        A prelude built for a different reduction is ignored (the run is
        cold).  *cancel* (a zero-arg checkpoint callable) flows through to
        the prelude passes and the per-row join loops.
        """
        if isinstance(executor, ReducedProgram):
            return executor.run_frames(
                relations, self.index_manager, self.use_indexes, prelude, profile,
                cancel=cancel,
            )
        return executor.run_frames(
            relations, self.index_manager, self.use_indexes, profile, cancel=cancel
        )

    # -- tracing ---------------------------------------------------------------
    def _evaluation_span(
        self,
        query: ConjunctiveQuery,
        executor: JoinProgram | ReducedProgram,
        kind: str,
        reason: str,
        strategy: Strategy | None,
        estimate: CostEstimate | None,
    ):
        """An open ``query.evaluate`` span plus the profile to fill (or no-ops).

        Returns ``(span, profile)``; callers gate every further attribute
        write on ``profile is not None``, so the disabled path pays exactly
        one ``get_tracer()`` call, one branch, and a no-op context manager.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return NULL_SPAN, None
        span = tracer.span(
            "query.evaluate",
            query=query.name,
            strategy=strategy or self.strategy,
            executor=kind,
            reason=reason,
        )
        if estimate is not None:
            span.set_attribute("cost_estimate", estimate.as_dict())
        steps = (
            executor.program.steps
            if isinstance(executor, ReducedProgram)
            else executor.steps
        )
        return span, JoinProfile(len(steps))

    @staticmethod
    def _annotate_span(
        span,
        executor: JoinProgram | ReducedProgram,
        profile: JoinProfile,
        estimate: CostEstimate | None,
    ) -> None:
        """Copy one profiled run's counters onto its evaluation span."""
        if profile.prelude is not None:
            span.set_attribute("prelude", profile.prelude)
        if profile.empty:
            span.set_attribute("empty", True)
        span.set_attribute("results", profile.results)
        steps = (
            executor.program.steps
            if isinstance(executor, ReducedProgram)
            else executor.steps
        )
        est_survival = estimate.survival if estimate is not None else None
        for position, step in enumerate(steps):
            child = span.child(
                "join.step",
                step=position,
                predicate=step.predicate,
                relation_rows=profile.relation_rows[position],
                rows_in=profile.rows_in[position],
                rows_scanned=profile.rows_scanned[position],
                frames_out=profile.frames_out[position],
                survival=round(profile.survival(position), 4),
            )
            if est_survival is not None and position < len(est_survival):
                child.set_attribute("est_survival", round(est_survival[position], 4))

    def bindings(
        self,
        query: ConjunctiveQuery,
        program: JoinProgram | None = None,
        reduced: ReducedProgram | None = None,
        strategy: Strategy | None = None,
        prelude: PreludeCache | None = None,
    ) -> Iterator[Binding]:
        """Yield every satisfying assignment of the query's variables."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("bindings.start")
        relations = self._resolve_relations(query)
        if program is None:
            program = compile_query(query, relations)
        executor, reason, estimate = self._executor(
            relations, program, reduced, strategy, prelude=prelude
        )
        variables = program.variables
        cancel = deadline.checker("join") if deadline is not None else None
        for frame in self._frames_for(executor, relations, prelude, cancel=cancel):
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

    def evaluate(
        self, query: ConjunctiveQuery, strategy: Strategy | None = None
    ) -> Relation:
        """Evaluate *query* and return its answer relation (set semantics)."""
        schema = result_schema(query)
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        program = compile_query(query, relations)
        executor, reason, estimate = self._executor(
            relations, program, None, strategy
        )
        kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
        span, profile = self._evaluation_span(
            query, executor, kind, reason, strategy, estimate
        )
        timed = self.metrics is not None or profile is not None
        output_row = program.output_row
        cancel = deadline.checker("join") if deadline is not None else None
        with span:
            started = time.perf_counter() if timed else 0.0
            answers = {
                output_row(frame)
                for frame in self._frames_for(
                    executor, relations, None, profile=profile, cancel=cancel
                )
            }
            elapsed = time.perf_counter() - started if timed else 0.0
            if profile is not None:
                span.set_attribute("answers", len(answers))
                self._annotate_span(span, executor, profile, estimate)
        if self.metrics is not None:
            self.metrics.record_actual(kind, elapsed)
            fingerprint = current_fingerprint()
            if fingerprint is not None:
                self.metrics.record_evaluation(fingerprint, kind, elapsed, estimate)
        return Relation(schema, answers)

    def evaluate_with_bindings(
        self,
        query: ConjunctiveQuery,
        program: JoinProgram | None = None,
        reduced: ReducedProgram | None = None,
        strategy: Strategy | None = None,
        prelude: PreludeCache | None = None,
    ) -> dict[tuple, list[Binding]]:
        """Map every output tuple to the list of bindings producing it."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("evaluate.start")
        relations = self._resolve_relations(query)
        if program is None:
            program = compile_query(query, relations)
        executor, reason, estimate = self._executor(
            relations, program, reduced, strategy, prelude=prelude
        )
        kind = "reduced" if isinstance(executor, ReducedProgram) else "program"
        span, profile = self._evaluation_span(
            query, executor, kind, reason, strategy, estimate
        )
        timed = self.metrics is not None or profile is not None
        variables = program.variables
        cancel = deadline.checker("join") if deadline is not None else None
        with span:
            started = time.perf_counter() if timed else 0.0
            out: dict[tuple, list[Binding]] = {}
            for frame in self._frames_for(
                executor, relations, prelude, profile=profile, cancel=cancel
            ):
                out.setdefault(program.output_row(frame), []).append(
                    dict(zip(variables, frame))
                )
            elapsed = time.perf_counter() - started if timed else 0.0
            if profile is not None:
                span.set_attribute("answers", len(out))
                self._annotate_span(span, executor, profile, estimate)
        if self.metrics is not None:
            self.metrics.record_actual(kind, elapsed)
            fingerprint = current_fingerprint()
            if fingerprint is not None:
                self.metrics.record_evaluation(fingerprint, kind, elapsed, estimate)
        return out

    def evaluate_parameterized(
        self,
        query: ConjunctiveQuery,
        parameter_values: Mapping[str | Variable, object],
        strategy: Strategy | None = None,
    ) -> Relation:
        """Evaluate a parameterized query with its parameters instantiated.

        ``parameter_values`` maps parameter names (or variables) to constants;
        every parameter of the query must be covered.  The substituted
        constants become reduction pre-filters, so parameterized citation
        queries are where the ``"reduced"`` strategy shines.
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
        return self.evaluate(query.substitute(substitution), strategy=strategy)


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
