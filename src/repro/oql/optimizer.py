"""Plan selection.

Recognizes the two query shapes the paper studied and costs every
applicable physical strategy:

* single-variable selections — full scan vs (sorted) unclustered index
  scan, the Section 4 trade-off;
* two-variable parent/child tree queries — NL vs NOJOIN vs PHJ vs CHJ,
  the Section 5 competition.

Heuristic rewrites come first (normalizing ``literal op path`` to
``path op literal``, splitting conjunctions into sargable + residual);
then the :class:`~repro.oql.cost.CostModel` ranks the candidates, with
selectivities and join shapes from the
:class:`~repro.oql.estimator.CardinalityEstimator`.  How widely a
selection is searched depends on whether ``analyze`` has installed
statistics (see :class:`Optimizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PlanError
from repro.index.btree import BTreeIndex
from repro.oql.ast_nodes import (
    AggregateExpr,
    BinOp,
    CollectionRef,
    ExistsExpr,
    Expr,
    Literal,
    Path,
    Query,
    TupleExpr,
    conjuncts,
)
from repro.oql.catalog import Catalog, RelationshipInfo
from repro.oql.cost import CostModel, PlanEstimate
from repro.oql.estimator import CardinalityEstimator
from repro.oql.parser import STATEMENT_CACHE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.opt.collector import TableStats

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _forced(alternatives: dict[str, PlanEstimate], force: str) -> str:
    """``force``, once it is known to name one of the alternatives."""
    if force not in alternatives:
        raise PlanError(
            f"cannot force {force!r}: the alternatives are "
            f"{', '.join(alternatives)}"
        )
    return force


@dataclass(frozen=True)
class SargablePredicate:
    """``var.attr op literal`` — what an index can evaluate."""

    var: str
    attr: str
    op: str
    value: object

    def bounds(self) -> tuple[object | None, object | None, bool, bool]:
        """(low, high, include_low, include_high) for an index scan."""
        if self.op == "<":
            return None, self.value, True, False
        if self.op == "<=":
            return None, self.value, True, True
        if self.op == ">":
            return self.value, None, False, True
        if self.op == ">=":
            return self.value, None, True, True
        if self.op == "=":
            return self.value, self.value, True, True
        raise PlanError(f"operator {self.op!r} is not sargable")


#: A conjunct that can drive an index scan: (predicate, its index, its
#: estimated selectivity).
_Driver = tuple[SargablePredicate, BTreeIndex, float]


@dataclass(frozen=True)
class ExistsFilter:
    """``exists child in var.set_attr : child.attr op literal`` — applied
    by navigating the set until a child matches."""

    set_attr: str
    child_pred: SargablePredicate


@dataclass(frozen=True)
class SelectionParts:
    """The validated logical pieces of a single-variable selection —
    what is left for a planner to decide is purely physical (access
    path and driving predicate)."""

    collection_name: str
    projection: tuple[tuple[str, Path], ...]
    aggregate: tuple[str, str | None] | None
    order_by: tuple[tuple[str, bool], ...]
    predicates: tuple[SargablePredicate, ...]
    exists_filters: tuple[ExistsFilter, ...]


@dataclass(frozen=True)
class SelectionPlan:
    """Physical plan for a single-variable selection."""

    collection_name: str
    project: tuple[str, ...]           # attribute names, in output order
    columns: tuple[str, ...]           # output column labels
    predicate: SargablePredicate | None
    residuals: tuple[SargablePredicate, ...]
    index: BTreeIndex | None
    sorted_rids: bool
    estimate: PlanEstimate
    alternatives: dict[str, PlanEstimate] = field(default_factory=dict)
    distinct: bool = False
    #: (func, attr-or-None) when the query is an aggregate.
    aggregate: tuple[str, str | None] | None = None
    #: The aggregate/count can be answered from index entries alone —
    #: no object is ever fetched.
    index_only: bool = False
    #: (attribute, descending) sort terms applied to the result.
    order_by: tuple[tuple[str, bool], ...] = ()
    #: Existential semijoin filters (navigated per candidate).
    exists_filters: tuple[ExistsFilter, ...] = ()
    #: Emit at most this many rows (early-exits the pipeline).
    limit: int | None = None
    #: Estimated output rows (``explain`` compares it to the actual
    #: row count).
    est_rows: float = field(kw_only=True)

    @property
    def description(self) -> str:
        return self.estimate.description


@dataclass(frozen=True)
class TreeJoinPlan:
    """Physical plan for the parent/child tree query."""

    relationship: RelationshipInfo
    algorithm: str
    parent_key: str
    child_key: str
    parent_high: object
    child_high: object
    parent_project: str
    child_project: str
    columns: tuple[str, ...]
    parent_first: bool            # column order: parent attr first?
    estimate: PlanEstimate
    alternatives: dict[str, PlanEstimate] = field(default_factory=dict)
    distinct: bool = False
    #: Emit at most this many rows (early-exits the pipeline).
    limit: int | None = None
    #: Estimated output rows (``explain`` compares it to the actual
    #: row count).
    est_rows: float = field(kw_only=True)

    @property
    def description(self) -> str:
        return f"tree join via {self.algorithm}"


class Optimizer:
    """Chooses physical plans for parsed queries.

    One planner whose search widens once an ``analyze`` statement
    installs statistics (:meth:`install_stats`): before, a selection
    costs only its most selective indexed conjunct; after, it costs
    every indexed conjunct as a driver, discounts the result by the
    whole conjunction, and prices an index-only aggregate as such.
    Selectivities and join shapes always come from :attr:`estimator`,
    which falls back to the indexes' leaf directories and the catalog's
    ratios for whatever ANALYZE has not measured."""

    def __init__(self, catalog: Catalog, include_extensions: bool = False):
        self.catalog = catalog
        self.cost = CostModel(catalog.db.params)
        self.include_extensions = include_extensions
        self.estimator = CardinalityEstimator(catalog)
        #: The plans :meth:`plan` returned, keyed by the id of the parsed
        #: query and ``force``; each entry holds its query, so no id in
        #: the map can be taken by another object.  Every plan in it was
        #: built under ``_stats`` and ``_stamp``.
        self._plans: dict[
            tuple[int, str | None], tuple[Query, SelectionPlan | TreeJoinPlan]
        ] = {}
        self._stats: TableStats | None = None
        self._stamp: tuple[object, ...] = ()

    # -- entry point ------------------------------------------------------

    def install_stats(self, stats: TableStats) -> None:
        """Adopt the result of an ANALYZE pass (the ``analyze``
        statement calls this on the session's planner)."""
        self.estimator.install(stats)

    def plan(
        self, query: Query, force: str | None = None
    ) -> SelectionPlan | TreeJoinPlan:
        """The cheapest alternative, or the one named by ``force``: an
        ``alternatives`` key of a selection (``scan``, ``index``,
        ``sorted-index``, or the labelled keys once analyzed) or a join
        algorithm (any of the six; forcing an extension prices the
        extensions).  The enumeration is the same either way, and
        ``plan.estimate`` is the chosen alternative's.

        A plan is kept and handed out again for the same query object
        (the parse cache gives one per text) and ``force``, until the
        installed statistics or :meth:`Catalog.stamp` change; then every
        kept plan goes.  At most ``STATEMENT_CACHE_SIZE`` are kept,
        oldest out first."""
        plans = self._plans
        stats = self.estimator.stats
        stamp = self.catalog.stamp()
        if stats is not self._stats or stamp != self._stamp:
            plans.clear()
            self._stats = stats
            self._stamp = stamp
        key = (id(query), force)
        kept = plans.get(key)
        if kept is not None:
            return kept[1]
        plan = self._plan(query, force)
        if len(plans) >= STATEMENT_CACHE_SIZE:
            del plans[next(iter(plans))]
        plans[key] = (query, plan)
        return plan

    def _plan(
        self, query: Query, force: str | None
    ) -> SelectionPlan | TreeJoinPlan:
        if len(query.from_clauses) == 1:
            return self._plan_selection(query, force)
        if len(query.from_clauses) == 2:
            return self._plan_tree_join(query, force)
        raise PlanError(
            f"queries over {len(query.from_clauses)} variables are outside "
            "the supported subset"
        )

    # -- predicate normalization ----------------------------------------------

    @staticmethod
    def _as_sargable(expr: Expr, variables: set[str]) -> SargablePredicate | None:
        if not isinstance(expr, BinOp):
            return None
        left, right, op = expr.left, expr.right, expr.op
        if isinstance(left, Literal) and isinstance(right, Path):
            left, right, op = right, left, _FLIP[op]
        if not (isinstance(left, Path) and isinstance(right, Literal)):
            return None
        if left.var not in variables or len(left.attrs) != 1:
            return None
        return SargablePredicate(left.var, left.attrs[0], op, right.value)

    def _as_exists(self, term: ExistsExpr, outer_var: str) -> ExistsFilter:
        if term.source.var != outer_var or len(term.source.attrs) != 1:
            raise PlanError(
                "exists must range over a set attribute of the selection "
                f"variable (got {term.source})"
            )
        child_pred = self._as_sargable(term.condition, {term.var})
        if child_pred is None:
            raise PlanError(
                f"unsupported exists condition: {term.condition!r}"
            )
        return ExistsFilter(term.source.attrs[0], child_pred)

    @staticmethod
    def _projection(query: Query, variables: set[str]) -> list[tuple[str, Path]]:
        """Normalize the select clause into (label, path) pairs."""
        select = query.select
        if isinstance(select, Path):
            fields = [(str(select), select)]
        elif isinstance(select, TupleExpr):
            fields = [(name, expr) for name, expr in select.fields]
        else:
            raise PlanError("select clause must be a path or a tuple of paths")
        out: list[tuple[str, Path]] = []
        for label, expr in fields:
            if not isinstance(expr, Path) or len(expr.attrs) != 1:
                raise PlanError(
                    f"projection {label!r} must be var.attribute"
                )
            if expr.var not in variables:
                raise PlanError(f"unknown variable {expr.var!r} in select")
            out.append((label, expr))
        return out

    # -- selections ---------------------------------------------------------

    def _selection_parts(self, query: Query) -> SelectionParts:
        """Validate the logical shape; raises PlanError outside the
        supported subset."""
        clause = query.from_clauses[0]
        if not isinstance(clause.source, CollectionRef):
            raise PlanError("single-variable queries must range over a name")
        name = clause.source.name
        self.catalog.collection(name)
        variables = {clause.var}

        aggregate: tuple[str, str | None] | None = None
        if isinstance(query.select, AggregateExpr):
            agg = query.select
            if agg.arg is not None and agg.arg.var not in variables:
                raise PlanError(f"unknown variable {agg.arg.var!r} in select")
            if agg.func == "count":
                aggregate = ("count", None)
            else:
                if agg.arg is None or len(agg.arg.attrs) != 1:
                    raise PlanError(f"{agg.func}() needs var.attribute")
                aggregate = (agg.func, agg.arg.attrs[0])
            if query.order_by:
                raise PlanError("order by makes no sense with an aggregate")
            projection: list[tuple[str, Path]] = []
        else:
            projection = self._projection(query, variables)

        order_by: list[tuple[str, bool]] = []
        for term in query.order_by:
            if term.key.var not in variables or len(term.key.attrs) != 1:
                raise PlanError("order by expects var.attribute of the "
                                "selection variable")
            order_by.append((term.key.attrs[0], term.descending))
        predicates: list[SargablePredicate] = []
        exists_filters: list[ExistsFilter] = []
        for term in conjuncts(query.where):
            if isinstance(term, ExistsExpr):
                exists_filters.append(self._as_exists(term, clause.var))
                continue
            pred = self._as_sargable(term, variables)
            if pred is None:
                raise PlanError(f"unsupported where term: {term!r}")
            predicates.append(pred)
        return SelectionParts(
            collection_name=name,
            projection=tuple(projection),
            aggregate=aggregate,
            order_by=tuple(order_by),
            predicates=tuple(predicates),
            exists_filters=tuple(exists_filters),
        )

    def _plan_selection(self, query: Query, force: str | None) -> SelectionPlan:
        """The Section 4 enumeration: full scan against an unsorted and
        a rid-sorted index scan per driver, cheapest estimate wins
        unless one is forced."""
        parts = self._selection_parts(query)
        name = parts.collection_name
        predicates = parts.predicates
        aggregate = parts.aggregate
        n = self.catalog.collection_size(name)
        pages = self.catalog.file_pages(name)
        estimator = self.estimator
        analyzed = estimator.stats is not None

        # Every indexed sargable conjunct could drive an index scan;
        # the best has the lowest selectivity (first among equals).
        candidates: list[_Driver] = []
        for pred in predicates:
            index = self.catalog.index_for(name, pred.attr)
            if index is None or pred.op == "!=":
                continue
            candidates.append((pred, index, estimator.selectivity(name, pred)))
        best = min(candidates, key=lambda c: c[2]) if candidates else None
        # Without statistics only the best driver is costed, and all
        # that is known of the output is its selectivity; with them,
        # the best driver on each attribute is costed (labelled by the
        # attribute) and the residuals discount the result too.
        if analyzed:
            by_attr: dict[str, _Driver] = {}
            for driver in candidates:
                attr = driver[0].attr
                if attr not in by_attr or driver[2] < by_attr[attr][2]:
                    by_attr[attr] = driver
            drivers = list(by_attr.values())
            sel_out = estimator.conjunct_selectivity(name, predicates)
        else:
            drivers = [best] if best else []
            sel_out = best[2] if best else 1.0
        est_rows = 1.0 if aggregate is not None else n * sel_out

        alternatives = {
            "scan": self.cost.selection_scan(
                n, pages, self.catalog.extent_pages(name), sel_out
            )
        }
        access: dict[str, tuple[_Driver | None, bool]] = {"scan": (None, False)}
        for driver in drivers:
            pred, index, sel = driver
            for kind, sorted_rids in (("index", False), ("sorted-index", True)):
                label = f"{kind}({pred.attr})" if analyzed else kind
                alternatives[label] = self.cost.selection_index(
                    n, pages, index.leaf_count, sel, index.clustering_ratio,
                    sorted_rids=sorted_rids,
                )
                access[label] = (driver, sorted_rids)

        def build(
            driver: _Driver | None, sorted_rids: bool,
            estimate: PlanEstimate, index_only: bool = False,
        ) -> SelectionPlan:
            predicate, index = driver[:2] if driver else (None, None)
            return SelectionPlan(
                collection_name=name,
                project=tuple(path.attrs[0] for __, path in parts.projection),
                columns=(
                    (aggregate[0],) if index_only
                    else tuple(label for label, __ in parts.projection)
                ),
                predicate=predicate,
                residuals=tuple(p for p in predicates if p != predicate),
                index=index,
                sorted_rids=sorted_rids,
                estimate=estimate,
                alternatives=alternatives,
                distinct=query.distinct,
                aggregate=aggregate,
                index_only=index_only,
                order_by=parts.order_by,
                exists_filters=parts.exists_filters,
                limit=query.limit,
                est_rows=est_rows,
            )

        # An aggregate whose answer lives entirely in the index (counts,
        # or aggregates over the indexed key itself) never fetches an
        # object: always prefer the index when one applies.
        if (
            aggregate is not None and best is not None
            and not parts.exists_filters
            and all(p == best[0] for p in predicates)
            and aggregate[1] in (None, best[0].attr)
        ):
            # Without statistics the unsorted index scan's estimate
            # stands in for the index-only one.
            pred, index, sel = best
            label = "index"
            if analyzed:
                label = f"index-only({pred.attr})"
                alternatives[label] = self.cost.selection_index_only(
                    n, index.leaf_count, sel
                )
            if force in (None, label):
                return build(best, False, alternatives[label], index_only=True)

        choice = (
            min(alternatives, key=lambda k: alternatives[k].seconds)
            if force is None else _forced(alternatives, force)
        )
        return build(*access[choice], alternatives[choice])

    # -- tree joins -----------------------------------------------------------

    def _plan_tree_join(self, query: Query, force: str | None) -> TreeJoinPlan:
        if isinstance(query.select, AggregateExpr):
            raise PlanError("aggregates over tree joins are outside the "
                            "supported subset")
        if query.order_by:
            raise PlanError("order by over tree joins is outside the "
                            "supported subset")
        parent_clause, child_clause = query.from_clauses
        if not isinstance(parent_clause.source, CollectionRef):
            raise PlanError("the first from-clause must range over a name")
        if not (
            isinstance(child_clause.source, Path)
            and child_clause.source.var == parent_clause.var
            and len(child_clause.source.attrs) == 1
        ):
            raise PlanError(
                "the second from-clause must navigate a set attribute of "
                "the first variable (e.g. 'pa in p.clients')"
            )
        parent_name = parent_clause.source.name
        set_attr = child_clause.source.attrs[0]
        rel = self.catalog.relationship(parent_name, set_attr)

        variables = {parent_clause.var, child_clause.var}
        preds: dict[str, SargablePredicate] = {}
        for term in conjuncts(query.where):
            pred = self._as_sargable(term, variables)
            if pred is None or pred.op not in ("<", "<="):
                raise PlanError(
                    "tree-join predicates must be 'var.attr < literal' "
                    f"(got {term!r})"
                )
            if pred.var in preds:
                raise PlanError("one predicate per variable, please")
            preds[pred.var] = pred
        if set(preds) != variables:
            raise PlanError(
                "the tree query needs one predicate on the parent and one "
                "on the child"
            )
        parent_pred = preds[parent_clause.var]
        child_pred = preds[child_clause.var]

        parent_index = self.catalog.index_for(parent_name, parent_pred.attr)
        child_index = self.catalog.index_for(rel.child_collection, child_pred.attr)
        if parent_index is None or child_index is None:
            raise PlanError(
                "tree joins need indexes on both predicate attributes"
            )

        projection = self._projection(query, variables)
        if len(projection) != 2:
            raise PlanError("the tree query projects one parent and one "
                            "child attribute")
        by_var = {path.var: (label, path) for label, path in projection}
        if set(by_var) != variables:
            raise PlanError(
                "the projection must reference both the parent and the child"
            )
        parent_project = by_var[parent_clause.var][1].attrs[0]
        child_project = by_var[child_clause.var][1].attrs[0]
        parent_first = projection[0][1].var == parent_clause.var

        stats = self.estimator.join_stats(
            rel, parent_index, child_index, parent_pred, child_pred
        )
        estimates = self.cost.join_estimates(
            stats, include_extensions=self.include_extensions
        )
        if force is not None and force not in estimates:
            # Any of the six operators can be forced.
            estimates = self.cost.join_estimates(stats, include_extensions=True)
        algorithm = (
            min(estimates, key=lambda k: estimates[k].seconds)
            if force is None else _forced(estimates, force)
        )
        return TreeJoinPlan(
            relationship=rel,
            algorithm=algorithm,
            parent_key=parent_pred.attr,
            child_key=child_pred.attr,
            parent_high=parent_pred.value,
            child_high=child_pred.value,
            parent_project=parent_project,
            child_project=child_project,
            columns=tuple(label for label, __ in projection),
            parent_first=parent_first,
            estimate=estimates[algorithm],
            alternatives=estimates,
            distinct=query.distinct,
            limit=query.limit,
            est_rows=stats.sel_parents * stats.sel_children * stats.n_children,
        )
