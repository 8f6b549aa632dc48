"""Cost estimation for rewritings.

Section 3 of the paper ("Calculating citations") notes that enumerating all
rewritings and all assignments within each is infeasible, "pointing to the
need for cost functions to reduce the search space".  This module provides a
simple but effective cost model with two components:

* **evaluation cost** — an estimate of how expensive it is to evaluate the
  rewriting over the materialised views (product of view cardinalities scaled
  by join selectivity), and
* **citation size** — an estimate of how many distinct citations the
  rewriting will produce.  A λ-parameterized view contributes one citation
  per distinct parameter value appearing in the result (proportional to the
  view's size); an unparameterized view contributes exactly one.

The second component is precisely the "estimated minimum size" interpretation
of ``+R`` the paper uses in its worked example, where the rewriting through
the unparameterized view V2 wins over the one through the parameterized V1.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.query.ast import Variable
from repro.query.stats import StatisticsCatalog
from repro.relational.database import Database
from repro.rewriting.rewriting import Rewriting
from repro.rewriting.view import View


@dataclass(frozen=True)
class RewritingCost:
    """Cost estimate of one rewriting."""

    evaluation_cost: float
    citation_size: float
    views_used: int

    def total(self, citation_weight: float = 1.0, evaluation_weight: float = 1.0) -> float:
        """Weighted combination used for ranking."""
        return (
            evaluation_weight * self.evaluation_cost
            + citation_weight * self.citation_size
        )


class RewritingCostModel:
    """Estimates rewriting costs from base-relation statistics.

    Parameters
    ----------
    database:
        The database the views are defined over; per-relation cardinalities
        are read from it.  When ``None``, every relation is assumed to have
        ``default_cardinality`` rows (useful for schema-level reasoning
        without an instance).
    default_cardinality:
        Cardinality used for relations that are missing or empty.
    join_selectivity:
        Multiplicative factor applied per join variable shared between view
        atoms (a crude but standard selectivity guess).

    Distinct parameter values are read through the model's own
    :class:`~repro.query.stats.StatisticsCatalog`, which caches them per
    relation identity and version, so repeated selections over unchanged
    data scan no relation and a write rescans only the relation it changed.
    """

    def __init__(
        self,
        database: Database | None = None,
        default_cardinality: int = 1_000,
        join_selectivity: float = 0.1,
    ) -> None:
        self.database = database
        self.default_cardinality = default_cardinality
        self.join_selectivity = join_selectivity
        self.statistics = StatisticsCatalog()

    # -- statistics ------------------------------------------------------------
    def relation_cardinality(self, name: str) -> float:
        """Estimated number of rows in base relation *name*."""
        if self.database is not None and name in self.database:
            size = len(self.database.relation(name))
            if size > 0:
                return float(size)
        return float(self.default_cardinality)

    def view_cardinality(self, view: View) -> float:
        """Estimated number of rows in *view* (joins shrink, projections keep)."""
        definition = view.query.without_parameters()
        cardinality = 1.0
        for atom in definition.body:
            cardinality *= self.relation_cardinality(atom.predicate)
        join_vars = definition.join_variables()
        cardinality *= self.join_selectivity ** len(join_vars)
        return max(cardinality, 1.0)

    def distinct_parameter_values(self, view: View) -> float:
        """Estimated number of distinct parameter valuations of *view*.

        This drives the citation-size estimate: a parameterized view yields
        one citation per distinct parameter valuation in the result.
        """
        if not view.parameters:
            return 1.0
        if self.database is None:
            return self.view_cardinality(view)
        definition = view.query.without_parameters()
        estimate = 1.0
        for parameter in view.parameters:
            best = self.view_cardinality(view)
            for atom in definition.body:
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Variable) and term == parameter:
                        if atom.predicate in self.database:
                            distinct = self.statistics.distinct_count(
                                atom.predicate,
                                self.database.relation(atom.predicate),
                                (position,),
                            )
                            best = min(best, float(max(distinct, 1)))
            estimate *= best
        return estimate

    # -- rewriting-level estimates -------------------------------------------------
    def evaluation_cost(self, rewriting: Rewriting) -> float:
        """Estimated cost of evaluating the rewriting over materialised views."""
        cost = 1.0
        for view in (self._view_for(rewriting, a.predicate) for a in rewriting.query.body):
            cost *= self.view_cardinality(view)
        join_vars = rewriting.query.join_variables()
        cost *= self.join_selectivity ** len(join_vars)
        return max(cost, 1.0)

    def citation_size(self, rewriting: Rewriting) -> float:
        """Estimated number of distinct citations produced by the rewriting.

        Follows the paper's worked example: unparameterized views contribute a
        single citation; a parameterized view contributes one citation per
        distinct parameter valuation.
        """
        size = 0.0
        for atom in rewriting.query.body:
            view = self._view_for(rewriting, atom.predicate)
            size += self.distinct_parameter_values(view)
        return max(size, 1.0)

    def cost(self, rewriting: Rewriting) -> RewritingCost:
        """Full cost estimate of *rewriting*."""
        return RewritingCost(
            evaluation_cost=self.evaluation_cost(rewriting),
            citation_size=self.citation_size(rewriting),
            views_used=len(rewriting.views_used()),
        )

    def rank(self, rewritings: Sequence[Rewriting]) -> list[tuple[Rewriting, RewritingCost]]:
        """Rank rewritings by estimated citation size, then evaluation cost."""
        scored = [(rewriting, self.cost(rewriting)) for rewriting in rewritings]
        scored.sort(key=lambda pair: (pair[1].citation_size, pair[1].evaluation_cost))
        return scored

    @staticmethod
    def _view_for(rewriting: Rewriting, name: str) -> View:
        for view in rewriting.views:
            if view.name == name:
                return view
        raise KeyError(name)


def cheapest_rewriting(
    rewritings: Sequence[Rewriting],
    model: RewritingCostModel,
) -> Rewriting | None:
    """Return the rewriting with the smallest estimated citation size."""
    ranked = model.rank(list(rewritings))
    return ranked[0][0] if ranked else None


def cost_table(
    rewritings: Sequence[Rewriting], model: RewritingCostModel
) -> list[Mapping[str, object]]:
    """Tabulate the cost estimates of a set of rewritings (for reports)."""
    rows = []
    for rewriting, cost in model.rank(list(rewritings)):
        rows.append(
            {
                "rewriting": str(rewriting.query),
                "views": [v.name for v in rewriting.views_used()],
                "evaluation_cost": cost.evaluation_cost,
                "citation_size": cost.citation_size,
            }
        )
    return rows
