"""The citation algebra: expressions over ``·``, ``+``, ``+R`` and ``Agg``.

Definition 2.1 of the paper builds the citation of an output tuple for one
binding of one rewriting as the *joint* use (``·``) of the view citations
instantiated with that binding's parameter values.  Definition 2.2 combines
the citations of all bindings with ``+``.  Citations arising from different
rewritings are combined with ``+R`` and the citations of all result tuples
with ``Agg``.

A :class:`CitationExpression` is the *formal* citation — a tree over these
operators whose leaves are :class:`CitationAtom` values (``FV(CV(p̄))``).
The expression can be

* rendered symbolically (``(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)``),
  matching the paper's worked example, and
* evaluated under a :class:`~repro.core.policy.CitationPolicy` into a
  concrete set of citation records.

The operators mirror the provenance-semiring structure: an expression can be
converted to a provenance polynomial via :meth:`CitationExpression.to_polynomial`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.core.record import CitationRecord, CitationSet
from repro.provenance.polynomial import Polynomial


class CitationExpression:
    """Base class for nodes of the citation algebra."""

    __slots__ = ()

    symbol: str = "?"

    # -- traversal ----------------------------------------------------------
    def atoms(self) -> Iterator["CitationAtom"]:
        """Yield every leaf atom of the expression."""
        raise NotImplementedError

    def children(self) -> tuple["CitationExpression", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    # -- measurement ----------------------------------------------------------
    def atom_count(self) -> int:
        """Number of leaf atoms (with repetitions)."""
        return sum(1 for _ in self.atoms())

    def depth(self) -> int:
        """Height of the expression tree."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def distinct_citations(self) -> set[tuple[str, tuple]]:
        """Distinct (view, parameter values) pairs appearing in the expression."""
        return {(atom.view_name, atom.parameter_items) for atom in self.atoms()}

    # -- conversions -------------------------------------------------------------
    def to_polynomial(self) -> Polynomial:
        """Interpret the expression in the provenance-polynomial semiring.

        ``·`` becomes polynomial product, while ``+``, ``+R`` and ``Agg`` all
        become polynomial sum — the semiring abstraction of the paper.
        Tokens are (view name, parameter values) pairs.
        """
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


class CitationAtom(CitationExpression):
    """A leaf: the citation of one view under one parameter valuation."""

    __slots__ = ("view_name", "parameter_items", "record")

    symbol = "atom"

    def __init__(
        self,
        view_name: str,
        parameter_values: Mapping[str, object] | None = None,
        record: CitationRecord | None = None,
    ) -> None:
        self.view_name = view_name
        self.parameter_items: tuple[tuple[str, object], ...] = tuple(
            sorted((parameter_values or {}).items())
        )
        self.record = record

    @property
    def parameter_values(self) -> dict[str, object]:
        """Parameter valuation of this citation atom."""
        return dict(self.parameter_items)

    def atoms(self) -> Iterator["CitationAtom"]:
        yield self

    def children(self) -> tuple[CitationExpression, ...]:
        return ()

    def to_polynomial(self) -> Polynomial:
        return Polynomial.variable((self.view_name, self.parameter_items))

    def evaluated_records(self) -> CitationSet:
        """The record set this atom contributes (empty when not evaluated)."""
        if self.record is None:
            return frozenset()
        return frozenset({self.record})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationAtom):
            return NotImplemented
        return (
            self.view_name == other.view_name
            and self.parameter_items == other.parameter_items
        )

    def __hash__(self) -> int:
        return hash((self.view_name, self.parameter_items))

    def __str__(self) -> str:
        if not self.parameter_items:
            return f"C{self.view_name}"
        values = ",".join(str(v) for _k, v in self.parameter_items)
        return f"C{self.view_name}({values})"

    def __repr__(self) -> str:
        return f"CitationAtom({self})"


class _Combination(CitationExpression):
    """Shared implementation of the n-ary operator nodes."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[CitationExpression]) -> None:
        self.operands: tuple[CitationExpression, ...] = tuple(operands)

    def atoms(self) -> Iterator[CitationAtom]:
        for operand in self.operands:
            yield from operand.atoms()

    def children(self) -> tuple[CitationExpression, ...]:
        return self.operands

    def _wrap(self, operand: CitationExpression) -> str:
        text = str(operand)
        if isinstance(operand, _Combination) and len(operand.operands) > 1:
            return f"({text})"
        return text

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.operands == other.operands  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.operands))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(repr(o) for o in self.operands)})"


class Joint(_Combination):
    """Joint use of citations within one binding (the ``·`` operator)."""

    symbol = "·"

    def to_polynomial(self) -> Polynomial:
        result = Polynomial.one()
        for operand in self.operands:
            result = result * operand.to_polynomial()
        return result

    def __str__(self) -> str:
        if not self.operands:
            return "1"
        return "·".join(self._wrap(o) for o in self.operands)


class Alternative(_Combination):
    """Alternative citations arising from multiple bindings (the ``+`` operator)."""

    symbol = "+"

    def to_polynomial(self) -> Polynomial:
        result = Polynomial.zero()
        for operand in self.operands:
            result = result + operand.to_polynomial()
        return result

    def __str__(self) -> str:
        if not self.operands:
            return "0"
        return " + ".join(self._wrap(o) for o in self.operands)


class RewriteAlternative(_Combination):
    """Alternative citations arising from different rewritings (the ``+R`` operator)."""

    symbol = "+R"

    def to_polynomial(self) -> Polynomial:
        result = Polynomial.zero()
        for operand in self.operands:
            result = result + operand.to_polynomial()
        return result

    def __str__(self) -> str:
        if not self.operands:
            return "0"
        return " +R ".join(self._wrap(o) for o in self.operands)


class Aggregate(_Combination):
    """Aggregation of the citations of all result tuples (the ``Agg`` function).

    An aggregate is the root of a citation's expression and every formatter
    that shows the expression renders it, so its text is rendered once and
    kept on the (immutable) node.
    """

    __slots__ = ("_text",)

    symbol = "Agg"

    def __init__(self, operands: Iterable[CitationExpression]) -> None:
        super().__init__(operands)
        self._text: str | None = None

    def to_polynomial(self) -> Polynomial:
        result = Polynomial.zero()
        for operand in self.operands:
            result = result + operand.to_polynomial()
        return result

    def __str__(self) -> str:
        if self._text is None:
            self._text = f"Agg[{', '.join(str(o) for o in self.operands)}]"
        return self._text


def _deduplicate(operands: Sequence[CitationExpression]) -> tuple[CitationExpression, ...]:
    """Drop syntactically equal operands (``+`` and ``+R`` are idempotent)."""
    kept: list[CitationExpression] = []
    for operand in operands:
        if not any(operand == existing for existing in kept):
            kept.append(operand)
    return tuple(kept)


def joint(operands: Sequence[CitationExpression]) -> CitationExpression:
    """Build a ``·`` node, collapsing the single-operand case."""
    operands = tuple(operands)
    if len(operands) == 1:
        return operands[0]
    return Joint(operands)


def alternative(operands: Sequence[CitationExpression]) -> CitationExpression:
    """Build a ``+`` node, deduplicating operands and collapsing singletons."""
    operands = _deduplicate(operands)
    if len(operands) == 1:
        return operands[0]
    return Alternative(operands)


def rewrite_alternative(operands: Sequence[CitationExpression]) -> CitationExpression:
    """Build a ``+R`` node, deduplicating operands and collapsing singletons."""
    operands = _deduplicate(operands)
    if len(operands) == 1:
        return operands[0]
    return RewriteAlternative(operands)
