"""Plan selection.

Recognizes the two query shapes the paper studied and costs every
applicable physical strategy:

* single-variable selections — full scan vs (sorted) unclustered index
  scan, the Section 4 trade-off;
* two-variable parent/child tree queries — NL vs NOJOIN vs PHJ vs CHJ,
  the Section 5 competition.

Heuristic rewrites come first (normalizing ``literal op path`` to
``path op literal``, splitting conjunctions into sargable + residual);
then the :class:`~repro.oql.cost.CostModel` ranks the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.index.btree import BTreeIndex
from repro.objects.database import CHUNK_RIDS
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
from repro.oql.cost import CostModel, JoinStats, PlanEstimate

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


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


@dataclass
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


@dataclass
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
    """Chooses physical plans for parsed queries."""

    def __init__(self, catalog: Catalog, include_extensions: bool = False):
        self.catalog = catalog
        self.cost = CostModel(catalog.db.params)
        self.include_extensions = include_extensions

    # -- entry point ------------------------------------------------------

    def install_stats(self, stats: object) -> None:
        """Adopt the result of an ANALYZE pass (the ``analyze``
        statement calls this on the session's planner).  This planner
        reads no statistics; :class:`repro.opt.CostBasedOptimizer`
        does."""

    def plan(self, query: Query) -> SelectionPlan | TreeJoinPlan:
        if len(query.from_clauses) == 1:
            return self._plan_selection(query)
        if len(query.from_clauses) == 2:
            return self._plan_tree_join(query)
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
        supported subset.  Shared by every planner."""
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

    # The hooks the statistics planner
    # (:class:`repro.opt.CostBasedOptimizer`) overrides; everything
    # else about planning a selection is :meth:`_plan_selection`.

    def _predicate_selectivity(
        self, collection_name: str, pred: SargablePredicate,
        index: BTreeIndex,
    ) -> float:
        """Selectivity of one sargable predicate: interpolated over the
        index's leaf directory."""
        low, high, __, ___ = pred.bounds()
        return index.selectivity(low, high)

    def _output_selectivity(
        self,
        collection_name: str,
        parts: SelectionParts,
        best: _Driver | None,
    ) -> float:
        """Estimated fraction of the extent the query emits: all this
        planner knows is the best indexed predicate."""
        return best[2] if best else 1.0

    def _drivers(
        self, candidates: list[_Driver], best: _Driver | None
    ) -> list[_Driver]:
        """The candidates whose index scans get costed: only the most
        selective one."""
        return [best] if best else []

    def _label(self, kind: str, pred: SargablePredicate) -> str:
        """Key of an access path in ``SelectionPlan.alternatives``; with
        one driver the kind alone is unambiguous."""
        return kind

    def _index_only_estimate(
        self, n: int, driver: _Driver, index_scan: PlanEstimate
    ) -> tuple[str, PlanEstimate]:
        """(label, estimate) of answering an aggregate from ``driver``'s
        index entries alone; ``index_scan`` is the unsorted index scan
        already costed for it, which stands in here."""
        return self._label("index", driver[0]), index_scan

    def _plan_selection(self, query: Query) -> SelectionPlan:
        """The Section 4 enumeration: full scan against an unsorted and
        a rid-sorted index scan per driver, cheapest estimate wins."""
        parts = self._selection_parts(query)
        name = parts.collection_name
        predicates = parts.predicates
        aggregate = parts.aggregate
        n = self.catalog.collection_size(name)
        pages = self.catalog.file_pages(name)

        # Every indexed sargable conjunct could drive an index scan;
        # the best has the lowest selectivity (first among equals).
        candidates: list[_Driver] = []
        for pred in predicates:
            index = self.catalog.index_for(name, pred.attr)
            if index is None or pred.op == "!=":
                continue
            sel = self._predicate_selectivity(name, pred, index)
            candidates.append((pred, index, sel))
        best = min(candidates, key=lambda c: c[2]) if candidates else None
        sel_out = self._output_selectivity(name, parts, best)
        est_rows = 1.0 if aggregate is not None else n * sel_out

        alternatives = {
            "scan": self.cost.selection_scan(
                n, pages, self.catalog.extent_pages(name), sel_out
            )
        }
        access: dict[str, tuple[_Driver | None, bool]] = {"scan": (None, False)}
        for driver in self._drivers(candidates, best):
            pred, index, sel = driver
            for sorted_rids in (False, True):
                label = self._label(
                    "sorted-index" if sorted_rids else "index", pred
                )
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
            label, estimate = self._index_only_estimate(
                n, best, alternatives[self._label("index", best[0])]
            )
            alternatives[label] = estimate
            return build(best, False, estimate, index_only=True)

        choice = min(alternatives, key=lambda k: alternatives[k].seconds)
        return build(*access[choice], alternatives[choice])

    # -- tree joins -----------------------------------------------------------

    def _plan_tree_join(self, query: Query) -> TreeJoinPlan:
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

        stats = self._join_stats(rel, parent_index, child_index,
                                 parent_pred, child_pred)
        estimates = self.cost.join_estimates(
            stats, include_extensions=self.include_extensions
        )
        algorithm = min(estimates, key=lambda k: estimates[k].seconds)
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

    def _join_stats(
        self,
        rel: RelationshipInfo,
        parent_index: BTreeIndex,
        child_index: BTreeIndex,
        parent_pred: SargablePredicate,
        child_pred: SargablePredicate,
    ) -> JoinStats:
        n_parents = self.catalog.collection_size(rel.parent_collection)
        n_children = self.catalog.collection_size(rel.child_collection)
        avg_children = n_children / max(1, n_parents)
        set_bytes = avg_children * 8
        parent_set_chunks = (
            0.0 if set_bytes <= 3400 else avg_children / CHUNK_RIDS
        )
        return JoinStats(
            n_parents=n_parents,
            n_children=n_children,
            parent_pages=self.catalog.file_pages(rel.parent_collection),
            child_pages=self.catalog.file_pages(rel.child_collection),
            parent_leaves=parent_index.leaf_count,
            child_leaves=child_index.leaf_count,
            sel_parents=parent_index.selectivity(*parent_pred.bounds()[:2]),
            sel_children=child_index.selectivity(*child_pred.bounds()[:2]),
            avg_children=avg_children,
            children_with_parents=rel.children_with_parents,
            child_index_clustering=child_index.clustering_ratio,
            parent_index_clustering=parent_index.clustering_ratio,
            parent_set_chunks=parent_set_chunks,
        )
