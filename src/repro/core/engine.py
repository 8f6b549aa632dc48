"""The citation engine: rewrite a general query and construct its citation.

This module implements the paper's approach end to end:

1. the query is rewritten into (minimal) equivalent queries over the citation
   views, ignoring λ-parameters (Section 2);
2. for every rewriting and every output tuple, the set of bindings is
   enumerated; each binding yields the joint (``·``) citation of the view
   atoms it instantiates, with the views' parameters valued by the binding
   (Definition 2.1);
3. multiple bindings are combined with ``+`` (Definition 2.2), multiple
   rewritings with ``+R`` and the result tuples with ``Agg``;
4. the resulting expression is evaluated under the owner's
   :class:`~repro.core.policy.CitationPolicy` into concrete citation records.

Two operating modes address the paper's "Calculating citations" challenge:

* ``mode="formal"`` follows the formal semantics: every rewriting contributes
  to the per-tuple ``+R`` expression;
* ``mode="economical"`` uses the :class:`~repro.core.rewriting_selector.RewritingSelector`
  to pick the cheapest rewriting(s) up front — the cost-based pruning the
  paper advocates — and only evaluates those.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from typing import Literal

from repro.core.citation import Citation
from repro.core.citation_view import CitationView, SnippetIndex, views_of
from repro.core.expression import (
    Aggregate,
    CitationAtom,
    CitationExpression,
    alternative,
    joint,
    rewrite_alternative,
)
from repro.core.policy import CitationPolicy
from repro.core.record import CitationRecord, CitationSet
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.ir import verify_citation_plan, verify_program
from repro.analysis.query_rules import QueryAnalysis, analyze_query
from repro.concurrency import shared_state
from repro.core.rewriting_selector import RewritingSelector
from repro.errors import (
    CitationError,
    NoRewritingError,
    PlanVerificationError,
    StaticAnalysisError,
)
from repro.observability import NULL_SPAN, get_tracer
from repro.query.ast import ConjunctiveQuery, Constant, Term, Variable
from repro.query.compiler import JoinProgram
from repro.query.evaluator import Binding, QueryEvaluator, result_schema
from repro.query.stats import EvaluationMetrics
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.index import IndexManager
from repro.relational.relation import Relation
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.rewriting import Rewriting
from repro.rewriting.view import materialize_views

Mode = Literal["formal", "economical"]

#: How the engine treats static analysis at compile time:
#: ``"warn"`` (default) analyses every query, minimizes it to its core and
#: attaches the diagnostics to the plan; ``"strict"`` additionally raises
#: :class:`~repro.errors.StaticAnalysisError` on error-severity diagnostics;
#: ``"off"`` skips analysis entirely (queries compile as submitted).
AnalysisMode = Literal["strict", "warn", "off"]

#: How the engine treats the compiled-plan IR verifier (:mod:`repro.analysis.ir`)
#: at compile time: ``"warn"`` verifies every compiled plan's join IR and
#: attaches the diagnostics as trace annotations; ``"strict"`` additionally
#: raises :class:`~repro.errors.PlanVerificationError` on error-severity
#: diagnostics; ``"off"`` (the production default) skips verification.  The
#: test suite flips the class default to ``"strict"`` via conftest, so every
#: engine-compiled plan in CI is verifier-clean.
VerifyMode = Literal["strict", "warn", "off"]

#: Bound on the per-engine analysis cache (analyses are per query object
#: shape; serving traffic funnels through a fingerprint-keyed plan cache
#: upstream, so this only needs to absorb the working set).
_ANALYSIS_CACHE_LIMIT = 1024

#: A cache-validity stamp: ``(database generation, engine cache epoch)``.
#: Anything compiled from the engine (plans, materialised views, cached
#: results) is valid exactly as long as the engine's current token equals the
#: token it was stamped with.
PlanToken = tuple[int, int]


@dataclass(frozen=True)
class CitationPlan:
    """A compiled citation plan: the reusable, data-dependent-free part of
    :meth:`CitationEngine.cite`.

    Compiling a plan runs the expensive view-rewriting search (Bucket /
    MiniCon) and, in economical mode, the cost-based rewriting selection.
    Executing a plan only evaluates the chosen rewritings and assembles the
    citation expressions, so a cached plan lets structurally identical queries
    skip the search entirely (the serving layer in :mod:`repro.service` builds
    on this split).  The plan is also the only owner of each rewriting's
    compiled :class:`~repro.query.compiler.JoinProgram`.
    """

    query: ConjunctiveQuery
    rewritings: tuple[Rewriting, ...]
    mode: Mode
    token: PlanToken
    uses_fallback: bool = False
    #: The minimized core the rewriting search actually ran on (``None`` when
    #: analysis was off — the plan was compiled from the query as submitted).
    #: The head is identical to ``query``'s, so results and citations are
    #: unaffected; only redundant body atoms were dropped.
    core: ConjunctiveQuery | None = field(default=None, compare=False)
    #: Static-analysis findings from compile time (empty when analysis off).
    diagnostics: tuple[Diagnostic, ...] = field(default=(), compare=False)
    #: The compiled join program per rewriting position, built on first
    #: execution (or at compile time when plans are verified).  A program is
    #: pure description, independent of the data, and rides along through
    #: the serving layer's plan cache, so warm traffic never recompiles a
    #: rewriting.  Excluded from equality/hash.
    _compiled: dict[int, JoinProgram] = field(
        default_factory=dict, compare=False, repr=False
    )

    def compiled(self, position: int) -> JoinProgram | None:
        """The compiled program of rewriting *position* (``None`` before
        first use)."""
        return self._compiled.get(position)

    @property
    def data_dependent(self) -> bool:
        """Whether the plan's content depends on the database *instance*.

        The rewriting search itself (Bucket/MiniCon) reads only the query and
        the view definitions; the economical mode's cost-based selection also
        reads the data.  Data-independent plans stay valid across ordinary
        inserts/deletes — only a forced cache invalidation (epoch bump)
        retires them.
        """
        return self.mode == "economical"


@dataclass(frozen=True)
class TupleCitation:
    """The citation of a single output tuple."""

    row: tuple
    expression: CitationExpression
    records: CitationSet

    def citation(self) -> Citation:
        """Wrap the records as a :class:`Citation` object."""
        return Citation(self.records, expression=self.expression)

    def size(self) -> int:
        """Total snippet count of the tuple's citation."""
        return sum(record.size() for record in self.records)


@dataclass
class CitedResult:
    """A query answer together with per-tuple and aggregate citations."""

    query: ConjunctiveQuery
    rewritings: list[Rewriting]
    tuple_citations: list[TupleCitation]
    citation: Citation
    policy: CitationPolicy
    mode: Mode
    result: Relation
    used_fallback: bool = False
    _by_row: dict[tuple, TupleCitation] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_row = {tc.row: tc for tc in self.tuple_citations}

    def rows(self) -> list[tuple]:
        """The answer tuples in deterministic order."""
        return self.result.sorted_rows()

    def citation_for(self, row: tuple) -> TupleCitation:
        """The citation of one output tuple."""
        try:
            return self._by_row[tuple(row)]
        except KeyError:
            raise CitationError(f"tuple {row!r} is not in the result of {self.query.name!r}") from None

    def total_citation_size(self) -> int:
        """Size of the aggregate citation."""
        return self.citation.size()

    def __len__(self) -> int:
        return len(self.result)


@shared_state("_analysis_cache", "_analysis_stats", lock="_analysis_lock")
class CitationEngine:
    """Constructs citations for general queries over a cited database."""

    #: Class-level default for the ``verify_plans`` knob.  Production keeps
    #: ``"off"``; the test suite sets ``"strict"`` at conftest import so every
    #: compiled plan is IR-verified without threading the knob through every
    #: engine construction.
    DEFAULT_VERIFY_PLANS: VerifyMode = "off"

    def __init__(
        self,
        database: Database,
        citation_views: Sequence[CitationView],
        policy: CitationPolicy | None = None,
        rewriter: Literal["minicon", "bucket"] | object = "minicon",
        mode: Mode = "formal",
        selector: RewritingSelector | None = None,
        on_no_rewriting: Literal["error", "fallback"] = "error",
        fallback_citation: CitationRecord | None = None,
        analysis: AnalysisMode = "warn",
        verify_plans: VerifyMode | None = None,
    ) -> None:
        self.database = database
        self.analysis: AnalysisMode = analysis
        if verify_plans is None:
            verify_plans = type(self).DEFAULT_VERIFY_PLANS
        if verify_plans not in ("strict", "warn", "off"):
            raise CitationError(
                f"verify_plans must be 'strict', 'warn' or 'off', got {verify_plans!r}"
            )
        self.verify_plans: VerifyMode = verify_plans
        self.citation_views = list(citation_views)
        if not self.citation_views:
            raise CitationError("a citation engine needs at least one citation view")
        self.policy = policy or CitationPolicy.default()
        self.mode: Mode = mode
        self.on_no_rewriting = on_no_rewriting
        self.fallback_citation = fallback_citation
        self._views = views_of(self.citation_views)
        self._citation_view_by_name = {cv.name: cv for cv in self.citation_views}
        if len(self._citation_view_by_name) != len(self.citation_views):
            raise CitationError("citation view names must be unique")
        if rewriter == "minicon":
            self.rewriter = MiniConRewriter(self._views)
        elif rewriter == "bucket":
            self.rewriter = BucketRewriter(self._views)
        else:
            self.rewriter = rewriter
        self.selector = selector or RewritingSelector(
            database, strategy="min_citation_size", keep=1
        )
        self._view_relations: dict[str, Relation] | None = None
        self._record_cache: dict[tuple[str, tuple], CitationRecord] = {}
        # One grouped snippet index per citation view, built on the view's
        # first record miss of a generation and shared by all its records.
        self._snippet_indexes: dict[str, SnippetIndex] = {}
        self._cache_generation = database.generation
        self._cache_epoch = 0
        # Shared across executions so that hash indexes built over
        # materialised views survive from one request to the next (they are
        # re-validated against the views' identity and version on every probe).
        self._index_manager = IndexManager(database)
        # Evaluation counts and times; the serving layer exposes them through
        # CitationService.stats().
        self.evaluation_metrics = EvaluationMetrics()
        # Static analysis is pure query-shape work (schema + containment, no
        # instance data), so one bounded cache serves every compile and every
        # fingerprint computation of the same query object.  submit_batch fans
        # requests out over a thread pool, so lookup/evict/insert and the
        # counter bumps must be atomic (the analysis itself runs unlocked —
        # it is pure, so concurrent duplicate work races benignly).
        self._analysis_lock = threading.Lock()
        self._analysis_cache: dict[ConjunctiveQuery, QueryAnalysis] = {}
        self._analysis_stats = {
            "analyzed": 0,
            "cache_hits": 0,
            "minimized": 0,
            "errors": 0,
            "warnings": 0,
            "plans_verified": 0,
            "verify_violations": 0,
        }

    # -- caches ------------------------------------------------------------------
    @property
    def cache_epoch(self) -> int:
        """Counter bumped by every forced :meth:`invalidate_caches` call."""
        return self._cache_epoch

    def plan_token(self) -> PlanToken:
        """The current cache-validity stamp for compiled plans.

        A plan (or any derived cache entry) stamped with an older token must
        not be served: either the database content changed (generation) or the
        caches were invalidated explicitly (epoch).
        """
        return (self.database.generation, self._cache_epoch)

    def is_current(self, plan: CitationPlan) -> bool:
        """``True`` when *plan* was compiled against the current database state."""
        return plan.token == self.plan_token()

    def invalidate_caches(self) -> None:
        """Force-drop materialised views and every derived cache.

        Ordinary data updates do **not** require calling this: the caches are
        keyed on :attr:`Database.generation` and refresh themselves.  It
        remains for out-of-band changes (e.g. a citation function whose output
        depends on external state) and bumps the cache epoch so that compiled
        plans held elsewhere are invalidated too.

        Besides the views, this clears citation records, snippet indexes,
        view indexes and the rewriting selector's statistics.
        """
        self._view_relations = None
        self._record_cache.clear()
        self._snippet_indexes.clear()
        self._index_manager.invalidate()
        self.selector.cost_model.statistics.invalidate()
        self._cache_epoch += 1

    def _refresh_generation(self) -> None:
        """Drop content-derived caches when the database has changed."""
        generation = self.database.generation
        if generation != self._cache_generation:
            self._view_relations = None
            self._record_cache.clear()
            self._snippet_indexes.clear()
            self._cache_generation = generation

    def view_relations(self) -> dict[str, Relation]:
        """Materialisations of all citation views.

        Computed once per database generation: repeated ``cite()`` calls
        against an unchanged database reuse the same relations, and any
        insert/delete automatically triggers re-materialisation on next use.
        """
        self._refresh_generation()
        if self._view_relations is None:
            tracer = get_tracer()
            span = (
                tracer.span("engine.materialize_views", views=len(self._views))
                if tracer.enabled
                else NULL_SPAN
            )
            with span:
                self._view_relations = materialize_views(self._views, self.database)
                span.set_attribute(
                    "rows", sum(len(r) for r in self._view_relations.values())
                )
        return self._view_relations

    # -- static analysis ---------------------------------------------------------
    def analyze(self, query: ConjunctiveQuery | str) -> QueryAnalysis:
        """Statically analyse *query*: minimized core plus diagnostics (cached).

        With ``analysis="off"`` this returns a trivial analysis (the query is
        its own core, no diagnostics) without running any rule.  Analyses
        depend only on the query shape and the schema, never on the data, so
        they are cached unboundedly by query identity up to a size cap.
        """
        query = self._as_query(query)
        if self.analysis == "off":
            return QueryAnalysis(query, query, ())
        with self._analysis_lock:
            cached = self._analysis_cache.get(query)
            if cached is not None:
                self._analysis_stats["cache_hits"] += 1
                return cached
        # Analysis is pure, so it runs outside the lock: concurrent misses on
        # the same query compute equivalent results and the first insert wins.
        result = analyze_query(query, self.database.schema)
        with self._analysis_lock:
            existing = self._analysis_cache.get(query)
            if existing is not None:
                self._analysis_stats["cache_hits"] += 1
                return existing
            self._analysis_stats["analyzed"] += 1
            if result.minimized:
                self._analysis_stats["minimized"] += 1
            if result.has_errors:
                self._analysis_stats["errors"] += 1
            if any(d.severity.value == "warning" for d in result.diagnostics):
                self._analysis_stats["warnings"] += 1
            if len(self._analysis_cache) >= _ANALYSIS_CACHE_LIMIT:
                self._analysis_cache.pop(next(iter(self._analysis_cache)))
            self._analysis_cache[query] = result
        return result

    def analysis_stats(self) -> dict[str, object]:
        """Counters of the static-analysis pass (exposed by the service)."""
        with self._analysis_lock:
            return {"mode": self.analysis, **self._analysis_stats}

    # -- rewriting ----------------------------------------------------------------
    def rewritings(self, query: ConjunctiveQuery | str) -> list[Rewriting]:
        """All minimal equivalent rewritings of *query* over the citation views."""
        query = self._as_query(query)
        return self.rewriter.rewrite(query.without_parameters())

    # -- citation records -----------------------------------------------------------
    def citation_record(
        self,
        view_name: str,
        parameter_values: Mapping[str, object] | None = None,
        *,
        refresh: bool = True,
    ) -> CitationRecord:
        """``FV(CV(p̄))`` for one view and one parameter valuation (cached).

        Records are cached per database generation.  A miss slices the
        view's snippet index (:meth:`CitationView.snippet_index`), which the
        first miss of the generation builds and publishes: every citation
        query of a view is evaluated once per generation, not once per
        valuation.

        ``refresh=False`` skips reading the generation (a scan of every
        relation's version).  Plan execution reads it once when it starts
        and passes ``False`` for each of its lookups.
        """
        if refresh:
            self._refresh_generation()
        parameter_values = dict(parameter_values or {})
        key = (view_name, tuple(sorted(parameter_values.items(), key=repr)))
        cached = self._record_cache.get(key)
        if cached is None:
            citation_view = self._citation_view_by_name.get(view_name)
            if citation_view is None:
                raise CitationError(f"unknown citation view {view_name!r}")
            index = self._snippet_indexes.get(view_name)
            if index is None:
                # Racing misses may each build one; all adopt the first published.
                index = self._snippet_indexes.setdefault(
                    view_name, citation_view.snippet_index(self.database)
                )
            cached = citation_view.citation_for(self.database, parameter_values, index)
            self._record_cache[key] = cached
        return cached

    def _atom_for(
        self, view_name: str, parameter_values: Mapping[str, object]
    ) -> CitationAtom:
        """A citation atom with its record; the caller has read the generation."""
        record = self.citation_record(view_name, parameter_values, refresh=False)
        return CitationAtom(view_name, parameter_values, record)

    def _parameters_for_view_atom(
        self, citation_view: CitationView, atom_terms: Sequence[Term], binding: Binding
    ) -> dict[str, object]:
        """Extract the parameter valuation of one view atom under one binding.

        The paper: "Bi is the result of applying B to the variables occurring
        in an atom involving Vi" — restricted here to the λ-parameter
        positions of the view head.
        """
        values: dict[str, object] = {}
        for name, position in citation_view.view.parameter_positions().items():
            term = atom_terms[position]
            if isinstance(term, Constant):
                values[name] = term.value
            else:
                assert isinstance(term, Variable)
                if term not in binding:
                    raise CitationError(
                        f"binding does not determine parameter {name!r} of view "
                        f"{citation_view.name!r}"
                    )
                values[name] = binding[term]
        return values

    # -- Definitions 2.1 / 2.2 ---------------------------------------------------------
    def citation_for_binding(
        self, rewriting: Rewriting, binding: Binding
    ) -> CitationExpression:
        """Definition 2.1: the joint citation of one binding of one rewriting."""
        self._refresh_generation()
        return self._joint_citation(rewriting, binding)

    def citation_for_tuple_in_rewriting(
        self, rewriting: Rewriting, bindings: Sequence[Binding]
    ) -> CitationExpression:
        """Definition 2.2: combine the citations of all bindings with ``+``.

        Bindings are processed in a deterministic order so that the symbolic
        citation expression is reproducible across runs.
        """
        self._refresh_generation()
        return self._alternative_citation(rewriting, bindings)

    def _joint_citation(self, rewriting: Rewriting, binding: Binding) -> CitationExpression:
        atoms: list[CitationExpression] = []
        for view_atom in rewriting.query.body:
            citation_view = self._citation_view_by_name.get(view_atom.predicate)
            if citation_view is None:
                raise CitationError(
                    f"rewriting uses view {view_atom.predicate!r} with no citation view"
                )
            parameters = self._parameters_for_view_atom(
                citation_view, view_atom.terms, binding
            )
            atoms.append(self._atom_for(view_atom.predicate, parameters))
        return joint(atoms)

    def _alternative_citation(
        self, rewriting: Rewriting, bindings: Sequence[Binding]
    ) -> CitationExpression:
        ordered = sorted(bindings, key=lambda b: sorted((v.name, repr(b[v])) for v in b))
        return alternative([self._joint_citation(rewriting, binding) for binding in ordered])

    # -- main entry point -----------------------------------------------------------------
    def compile_plan(
        self,
        query: ConjunctiveQuery | str,
        mode: Mode | None = None,
    ) -> CitationPlan:
        """Run the rewriting search (and economical selection) for *query*.

        The returned :class:`CitationPlan` can be executed any number of times
        with :meth:`execute_plan` — the expensive part of citing a query is
        done exactly once.  Raises :class:`NoRewritingError` when no rewriting
        exists and the engine is configured with ``on_no_rewriting="error"``;
        with ``"fallback"`` a fallback plan is returned instead.

        Unless ``analysis="off"``, the query is statically analysed first and
        the rewriting search runs on its *minimized core* — the plan records
        both (``plan.query`` keeps the query as submitted; the heads are
        identical, so results and citations are unchanged) and carries the
        diagnostics.  Under ``analysis="strict"``, error-severity diagnostics
        abort compilation with :class:`~repro.errors.StaticAnalysisError`.
        """
        query = self._as_query(query)
        mode = mode or self.mode
        tracer = get_tracer()
        span = (
            tracer.span("engine.compile_plan", query=query.name, mode=mode)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            analysis = self.analyze(query)
            for diag in analysis.diagnostics:
                span.child(
                    "analysis.diagnostic",
                    code=diag.code,
                    severity=diag.severity.value,
                    message=diag.message,
                )
            if analysis.minimized:
                span.set_attribute("atoms_dropped", analysis.atoms_dropped)
            if self.analysis == "strict" and analysis.has_errors:
                raise StaticAnalysisError(
                    f"query {query.name!r} failed static analysis: "
                    + "; ".join(str(d) for d in analysis.report.errors),
                    analysis.report.errors,
                )
            token = self.plan_token()
            rewritings = self.rewritings(analysis.core)
            span.set_attribute("rewritings_found", len(rewritings))
            if not rewritings:
                if self.on_no_rewriting == "error":
                    raise NoRewritingError(query.name)
                span.set_attribute("fallback", True)
                return CitationPlan(
                    query,
                    (),
                    mode,
                    token,
                    uses_fallback=True,
                    core=analysis.core,
                    diagnostics=analysis.diagnostics,
                )
            if mode == "economical":
                rewritings = self.selector.select(rewritings)
                span.set_attribute("rewritings_selected", len(rewritings))
            plan = CitationPlan(
                query,
                tuple(rewritings),
                mode,
                token,
                core=analysis.core,
                diagnostics=analysis.diagnostics,
            )
            self._verify_compiled_plan(plan, span)
            return plan

    def _verify_compiled_plan(self, plan: CitationPlan, span) -> None:
        """Run the IR verifier over *plan*'s compiled join IR (see
        ``verify_plans``).

        The programs are compiled eagerly here, by the same
        :meth:`_compiled_program` the executor would call lazily on first
        execution, so under ``warn``/``strict`` the verification itself is
        the only extra work, it happens once per plan compile, and warm
        traffic through the serving layer's plan cache never pays again.
        """
        if self.verify_plans == "off" or not plan.rewritings:
            return
        evaluator = self._execution_evaluator()
        report = AnalysisReport()
        for position in range(len(plan.rewritings)):
            report.extend(verify_program(self._compiled_program(plan, position, evaluator)))
        with self._analysis_lock:
            self._analysis_stats["plans_verified"] += 1
            if report.has_errors:
                self._analysis_stats["verify_violations"] += 1
        for diag in report:
            span.child(
                "ir.diagnostic",
                code=diag.code,
                severity=diag.severity.value,
                message=diag.message,
            )
        if self.verify_plans == "strict" and report.has_errors:
            raise PlanVerificationError(
                f"compiled plan for {plan.query.name!r} failed IR verification: "
                + "; ".join(str(d) for d in report.errors),
                report.errors,
            )

    def verify_plan(self, plan: CitationPlan) -> AnalysisReport:
        """IR-verify every program compiled onto *plan*, regardless of the
        ``verify_plans`` knob.

        Unlike the compile-time hook this also checks that each program
        belongs to its rewriting, so tests and the race harness can assert
        plans stay verifier-clean *after* being executed and cached.
        """
        return verify_citation_plan(plan)

    def cite(
        self,
        query: ConjunctiveQuery | str,
        mode: Mode | None = None,
    ) -> CitedResult:
        """Answer *query* and construct per-tuple and aggregate citations."""
        return self.execute_plan(self.compile_plan(query, mode))

    def execute_plan(
        self,
        plan: CitationPlan,
        query: ConjunctiveQuery | str | None = None,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        """Evaluate a compiled plan and assemble the cited result.

        *query* may override the plan's stored query with a structurally
        identical (alpha-renamed / atom-reordered) variant: the answer rows
        and citations are the same, only the result schema and the reported
        query text differ.  This is what lets the plan cache serve every
        member of an isomorphism class from one compilation.  *policy*
        overrides the engine's citation policy for this execution only —
        plans are policy-independent, so the same compiled plan serves every
        policy.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._execute_plan(plan, query, policy)
        with tracer.span(
            "engine.execute_plan",
            query=plan.query.name,
            mode=plan.mode,
            rewritings=len(plan.rewritings),
            fallback=plan.uses_fallback,
        ) as span:
            result = self._execute_plan(plan, query, policy)
            span.set_attribute("rows", len(result))
            return result

    def _execute_plan(
        self,
        plan: CitationPlan,
        query: ConjunctiveQuery | str | None = None,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        policy = policy or self.policy
        query = plan.query if query is None else self._as_query(query)
        if plan.uses_fallback:
            return self._handle_no_rewriting(query, plan.mode, policy)

        tracer = get_tracer()
        # Building the evaluator reads the database generation (through
        # view_relations); assembly then looks records up without re-reading it.
        evaluator = self._execution_evaluator()
        per_rewriting: list[tuple[Rewriting, dict[tuple, list[Binding]]]] = []
        all_rows: set[tuple] = set()
        for position, rewriting in enumerate(plan.rewritings):
            program = self._compiled_program(plan, position, evaluator)
            rewriting_span = (
                tracer.span(
                    "engine.rewriting",
                    index=position,
                    rewriting=str(rewriting.query),
                )
                if tracer.enabled
                else NULL_SPAN
            )
            with rewriting_span:
                bindings_by_row = evaluator.evaluate_with_bindings(
                    rewriting.query, program=program
                )
                rewriting_span.set_attribute("rows", len(bindings_by_row))
            per_rewriting.append((rewriting, bindings_by_row))
            all_rows.update(bindings_by_row)

        assemble_span = (
            tracer.span("engine.assemble_citations", rows=len(all_rows))
            if tracer.enabled
            else NULL_SPAN
        )
        tuple_citations: list[TupleCitation] = []
        with assemble_span:
            for row in sorted(all_rows, key=repr):
                alternatives: list[CitationExpression] = []
                for rewriting, bindings_by_row in per_rewriting:
                    bindings = bindings_by_row.get(row)
                    if not bindings:
                        continue
                    alternatives.append(self._alternative_citation(rewriting, bindings))
                expression = rewrite_alternative(alternatives)
                records = policy.evaluate(expression)
                tuple_citations.append(TupleCitation(row, expression, records))

        aggregate_expression = Aggregate([tc.expression for tc in tuple_citations])
        aggregate_records = policy.aggregate([tc.records for tc in tuple_citations])
        result_relation = self._result_relation(query, all_rows)
        citation = Citation(
            aggregate_records,
            expression=aggregate_expression,
            query_text=str(query),
        )
        return CitedResult(
            query=query,
            rewritings=list(plan.rewritings),
            tuple_citations=tuple_citations,
            citation=citation,
            policy=policy,
            mode=plan.mode,
            result=result_relation,
        )

    # -- helpers -------------------------------------------------------------------------
    def _compiled_program(
        self, plan: CitationPlan, position: int, evaluator: QueryEvaluator
    ) -> JoinProgram:
        """The compiled program of *plan*'s rewriting *position*.

        Compiled on first use and published on the plan with ``setdefault``,
        so threads racing on a cold plan all adopt the first program.
        Compile-time verification and execution both go through here.
        """
        program = plan.compiled(position)
        if program is None:
            program = plan._compiled.setdefault(
                position, evaluator.compile(plan.rewritings[position].query)
            )
        return program

    def _execution_evaluator(self) -> QueryEvaluator:
        """A fresh evaluator over the current views for one execution.

        Cheap to build: it shares the engine's index manager and metrics, and
        holds no compiled state of its own (the plans own that).  Mutations must not race in-flight executions —
        the usual reader/writer discipline of the in-memory store.
        """
        return QueryEvaluator(
            self.database,
            extra_relations=self.view_relations(),
            index_manager=self._index_manager,
            metrics=self.evaluation_metrics,
        )

    def _handle_no_rewriting(
        self,
        query: ConjunctiveQuery,
        mode: Mode,
        policy: CitationPolicy | None = None,
    ) -> CitedResult:
        policy = policy or self.policy
        if self.on_no_rewriting == "error":
            raise NoRewritingError(query.name)
        fallback = self.fallback_citation or CitationRecord(
            {"title": "Cited database", "note": "no citation view covers this query"}
        )
        result_relation = QueryEvaluator(self.database).evaluate(
            query.without_parameters()
        )
        rows = result_relation.rows
        atom = CitationAtom("__database__", {}, fallback)
        tuple_citations = [
            TupleCitation(row, atom, frozenset({fallback})) for row in sorted(rows, key=repr)
        ]
        citation = Citation(
            frozenset({fallback}),
            expression=Aggregate([atom]) if tuple_citations else Aggregate([]),
            query_text=str(query),
        )
        return CitedResult(
            query=query,
            rewritings=[],
            tuple_citations=tuple_citations,
            citation=citation,
            policy=policy,
            mode=mode,
            result=result_relation,
            used_fallback=True,
        )

    def _result_relation(self, query: ConjunctiveQuery, rows: Iterable[tuple]) -> Relation:
        return Relation(result_schema(query), rows)

    @staticmethod
    def _as_query(query: ConjunctiveQuery | str) -> ConjunctiveQuery:
        if isinstance(query, str):
            return parse_query(query)
        return query
