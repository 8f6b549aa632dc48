"""Compilation of conjunctive queries into static join programs.

The interpreted evaluator re-derived everything per recursion level: it
re-picked the next atom, re-resolved the atom's relation, and copied the
binding dict once per candidate row.  :func:`compile_query` hoists all of
that decision-making into a one-time compile step that produces a
:class:`JoinProgram`:

* a **fixed atom order**, chosen once by the same boundness×cardinality
  greedy the interpreter applied per level (constants and variables bound by
  earlier atoms or equality atoms count as bound; ties break towards smaller
  relations, then towards the original body order for determinism);
* a **variable→slot assignment**, so a binding during execution is a flat
  mutable frame (a list indexed by slot) instead of a per-row dict copy;
* **per-atom bound-position accessors**: for every atom, which positions are
  bound at that point in the order (and from which slot or constant the probe
  key is read), which positions write a slot for the first time, and which
  within-atom repeats must be checked against a just-written slot.

A program is pure description — it holds no relation data — so it stays valid
across database mutations (the answer set of a conjunctive query does not
depend on the join order) and can be cached on a
:class:`~repro.core.engine.CitationPlan` and reused across requests by the
serving layer.  Executing a program needs a predicate→relation mapping
resolved once per evaluation, and optionally an
:class:`~repro.relational.index.IndexManager` so that bound-position probes
become hash-index lookups — including probes into materialised views and
other ``extra_relations``, which the interpreted evaluator always scanned.

The program is the only executor: the boundness-first order makes most
steps index probes that touch only matching rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping

from repro.errors import QueryError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.relational.index import IndexManager
from repro.relational.relation import Relation

__all__ = ["JoinStep", "JoinProfile", "JoinProgram", "compile_query"]


@dataclass(frozen=True)
class JoinStep:
    """One atom of a compiled join, with its accessors precomputed.

    ``key_positions`` are the atom's bound positions (ascending); the probe
    key is assembled from ``key_slots`` / ``key_values`` (a ``None`` slot
    means the aligned constant value is used).  ``writes`` are the positions
    whose row value binds a slot for the first time, and ``post_checks`` are
    within-atom repeats of a variable first written by this very step.
    """

    predicate: str
    key_positions: tuple[int, ...]
    key_slots: tuple[int | None, ...]
    key_values: tuple[object, ...]
    writes: tuple[tuple[int, int], ...]
    post_checks: tuple[tuple[int, int], ...]


class JoinProfile:
    """Per-step counters filled by one profiled run of a join program.

    Passing a profile to :meth:`JoinProgram.run_frames` switches to an
    instrumented copy of the nested-loop join that counts, per step (= per
    depth of the join order):

    * ``relation_rows`` — the step's full extension size;
    * ``rows_scanned`` — rows actually iterated at that depth, summed over
      every entry into the depth (index probes touch only matching rows);
    * ``frames_out`` — partial frames that survived the step's checks and
      descended further.

    ``results`` counts yielded frames.  The profiled path is a deliberate
    mirror of the tight loop — the hot (unprofiled) path never pays for the
    counters.
    """

    __slots__ = ("relation_rows", "rows_scanned", "frames_out", "results")

    def __init__(self, step_count: int) -> None:
        self.relation_rows = [0] * step_count
        self.rows_scanned = [0] * step_count
        self.frames_out = [0] * step_count
        self.results = 0


@dataclass(frozen=True)
class JoinProgram:
    """A conjunctive query compiled to a fixed join order over variable slots."""

    query: ConjunctiveQuery
    variables: tuple[Variable, ...]
    seed: tuple[tuple[int, object], ...]
    steps: tuple[JoinStep, ...]
    head_slots: tuple[int | None, ...]
    head_values: tuple[object, ...]

    @property
    def slot_count(self) -> int:
        """Number of variable slots in an execution frame."""
        return len(self.variables)

    def run_frames(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager | None = None,
        use_indexes: bool = True,
        profile: JoinProfile | None = None,
        cancel: Callable[[], None] | None = None,
    ) -> Iterator[tuple]:
        """Yield every satisfying frame (tuple of slot values, aligned with
        :attr:`variables`).

        With a *profile*, an instrumented copy of the join runs instead and
        fills the per-step counters (see :class:`JoinProfile`) — the plain
        path below stays counter-free.

        With *cancel* (a zero-arg callable, typically
        :meth:`Deadline.checker <repro.resilience.deadline.Deadline.checker>`),
        every scanned row is a cancellation checkpoint: the callable raises
        :class:`~repro.errors.DeadlineExceeded` to abandon the join
        mid-descent.  ``None`` costs one predicate test per row.
        """
        if profile is not None:
            yield from self._run_frames_profiled(
                relations, index_manager, use_indexes, profile, cancel
            )
            return
        frame: list = [None] * len(self.variables)
        for slot, value in self.seed:
            frame[slot] = value
        probe = use_indexes and index_manager is not None
        # Per-step state resolved at most once per run: the relation up
        # front, the (current) index lazily on first entry at that depth —
        # a join that short-circuits early never pays for deeper indexes —
        # so the per-row loop touches neither the resolver nor the manager.
        # The loop is mirrored in _run_frames_profiled, so fix both when
        # touching either.
        plan = [
            [step, relations[step.predicate], None, tuple(zip(step.key_slots, step.key_values))]
            for step in self.steps
        ]
        depth_count = len(plan)

        def descend(depth: int) -> Iterator[tuple]:
            if depth == depth_count:
                yield tuple(frame)
                return
            entry = plan[depth]
            step, relation, index, key_pairs = entry
            if step.key_positions:
                key = tuple(
                    value if slot is None else frame[slot]
                    for slot, value in key_pairs
                )
                if probe:
                    if index is None:
                        index = index_manager.index_for(
                            step.predicate, relation, step.key_positions
                        )
                        entry[2] = index
                    rows = index.get(key)
                else:
                    rows = relation.rows_matching(dict(zip(step.key_positions, key)))
            else:
                rows = relation
            writes = step.writes
            post_checks = step.post_checks
            for row in rows:
                if cancel is not None:
                    cancel()
                for position, slot in writes:
                    frame[slot] = row[position]
                for position, slot in post_checks:
                    if row[position] != frame[slot]:
                        break
                else:
                    yield from descend(depth + 1)

        yield from descend(0)

    def _run_frames_profiled(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager | None,
        use_indexes: bool,
        profile: JoinProfile,
        cancel: Callable[[], None] | None = None,
    ) -> Iterator[tuple]:
        """The counting mirror of :meth:`run_frames`'s descend loop."""
        frame: list = [None] * len(self.variables)
        for slot, value in self.seed:
            frame[slot] = value
        probe = use_indexes and index_manager is not None
        plan = [
            [step, relations[step.predicate], None, tuple(zip(step.key_slots, step.key_values))]
            for step in self.steps
        ]
        for position, step in enumerate(self.steps):
            profile.relation_rows[position] = len(relations[step.predicate])
        depth_count = len(plan)
        rows_scanned = profile.rows_scanned
        frames_out = profile.frames_out

        def descend(depth: int) -> Iterator[tuple]:
            if depth == depth_count:
                profile.results += 1
                yield tuple(frame)
                return
            entry = plan[depth]
            step, relation, index, key_pairs = entry
            if step.key_positions:
                key = tuple(
                    value if slot is None else frame[slot]
                    for slot, value in key_pairs
                )
                if probe:
                    if index is None:
                        index = index_manager.index_for(
                            step.predicate, relation, step.key_positions
                        )
                        entry[2] = index
                    rows = index.get(key)
                else:
                    rows = relation.rows_matching(dict(zip(step.key_positions, key)))
            else:
                rows = relation
            writes = step.writes
            post_checks = step.post_checks
            for row in rows:
                if cancel is not None:
                    cancel()
                rows_scanned[depth] += 1
                for position, slot in writes:
                    frame[slot] = row[position]
                for position, slot in post_checks:
                    if row[position] != frame[slot]:
                        break
                else:
                    frames_out[depth] += 1
                    yield from descend(depth + 1)

        yield from descend(0)

    def output_row(self, frame: tuple) -> tuple:
        """Project one frame onto the query's head terms."""
        return tuple(
            value if slot is None else frame[slot]
            for slot, value in zip(self.head_slots, self.head_values)
        )

    def run_rows(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager | None = None,
        use_indexes: bool = True,
    ) -> Iterator[tuple]:
        """Yield the head projection of every satisfying frame (with repeats)."""
        head_slots = self.head_slots
        head_values = self.head_values
        for frame in self.run_frames(relations, index_manager, use_indexes):
            yield tuple(
                value if slot is None else frame[slot]
                for slot, value in zip(head_slots, head_values)
            )

    def run_bindings(
        self,
        relations: Mapping[str, Relation],
        index_manager: IndexManager | None = None,
        use_indexes: bool = True,
    ) -> Iterator[dict[Variable, object]]:
        """Yield every satisfying assignment as a variable→value dict."""
        variables = self.variables
        for frame in self.run_frames(relations, index_manager, use_indexes):
            yield dict(zip(variables, frame))


def compile_query(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> JoinProgram:
    """Compile *query* into a :class:`JoinProgram`.

    *relations* supplies the relation instances backing the query's
    predicates; only their **cardinalities** are read (to order the atoms),
    so the program remains correct — if not always optimally ordered — when
    executed against the same schema with different data.
    """
    slots: dict[Variable, int] = {}
    seed: list[tuple[int, object]] = []
    for equality in query.equalities:
        slot = slots.setdefault(equality.variable, len(slots))
        seed.append((slot, equality.constant.value))

    # Greedy atom order: most bound positions first, then smallest relation,
    # then original body position (for determinism).
    remaining = list(enumerate(query.body))
    ordered: list[Atom] = []
    bound: set[Variable] = set(slots)

    def rank(item: tuple[int, Atom]) -> tuple[int, int, int]:
        position, atom = item
        boundness = sum(
            1
            for term in atom.terms
            if isinstance(term, Constant)
            or (isinstance(term, Variable) and term in bound)
        )
        return (-boundness, len(relations[atom.predicate]), position)

    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(best[1].variables())

    steps: list[JoinStep] = []
    for atom in ordered:
        key_positions: list[int] = []
        key_slots: list[int | None] = []
        key_values: list[object] = []
        writes: list[tuple[int, int]] = []
        post_checks: list[tuple[int, int]] = []
        written_here: set[Variable] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                key_positions.append(position)
                key_slots.append(None)
                key_values.append(term.value)
                continue
            assert isinstance(term, Variable)
            if term in written_here:
                post_checks.append((position, slots[term]))
            elif term in slots:
                key_positions.append(position)
                key_slots.append(slots[term])
                key_values.append(None)
            else:
                slot = len(slots)
                slots[term] = slot
                writes.append((position, slot))
                written_here.add(term)
        steps.append(
            JoinStep(
                predicate=atom.predicate,
                key_positions=tuple(key_positions),
                key_slots=tuple(key_slots),
                key_values=tuple(key_values),
                writes=tuple(writes),
                post_checks=tuple(post_checks),
            )
        )

    head_slots: list[int | None] = []
    head_values: list[object] = []
    for term in query.head_terms:
        if isinstance(term, Constant):
            head_slots.append(None)
            head_values.append(term.value)
        else:
            assert isinstance(term, Variable)
            if term not in slots:  # unreachable for safe queries
                raise QueryError(
                    f"head variable {term.name!r} of {query.name!r} is unbound"
                )
            head_slots.append(slots[term])
            head_values.append(None)

    by_slot = sorted(slots.items(), key=lambda item: item[1])
    return JoinProgram(
        query=query,
        variables=tuple(variable for variable, _slot in by_slot),
        seed=tuple(seed),
        steps=tuple(steps),
        head_slots=tuple(head_slots),
        head_values=tuple(head_values),
    )

