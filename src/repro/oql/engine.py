"""OQL execution: plans in, batches out.

The engine compiles the optimizer's physical plans into pull-based
operator trees (:mod:`repro.exec.operators`) and exposes two ways to
consume them:

* :meth:`OQLEngine.execute_iter` — a :class:`~repro.exec.operators.base.Cursor`
  streaming batches; ``limit`` / exists / first-row consumers stop early
  and never pay for the rest of the extent;
* :meth:`OQLEngine.execute` — drain the cursor and return the full row
  list, byte- and cost-identical to the pre-pipeline materializing
  engine.

Either way a query costs exactly what the benchmarks measure for the
same access path, because the operators reuse the measured execution
machinery (Figure 8 scan shapes, the Section 5 join algorithms).
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable, Iterable

from repro.errors import PlanError
from repro.exec.operators.base import (
    DEFAULT_BATCH_SIZE,
    SKIP,
    Cursor,
    Operator,
    PipelineContext,
    PipelineStats,
)
from repro.exec.operators.joins import JOIN_OPERATORS, TreeJoinQuery
from repro.exec.operators.scans import CollectionScan, Fetch, IndexScan
from repro.exec.operators.transforms import (
    Distinct,
    FetchingAggregate,
    IndexOnlyAggregate,
    Limit,
    Map,
    Sort,
)
from repro.objects.database import Database
from repro.oql.ast_nodes import AnalyzeStmt, ExplainStmt, Query, Statement
from repro.oql.catalog import Catalog
from repro.oql.explain import AnalyzeOperator, ExplainOperator
from repro.oql.optimizer import (
    Optimizer,
    SargablePredicate,
    SelectionPlan,
    TreeJoinPlan,
)
from repro.oql.parser import parse, parse_statement
from repro.simtime import Bucket
from repro.units import US_PER_S

_CPU = Bucket.CPU

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}

#: A residual predicate ready to run: (attribute, comparison, bound).
_Test = tuple[str, Callable[[object, object], bool], object]


def _tests(predicates: Iterable[SargablePredicate]) -> tuple[_Test, ...]:
    return tuple((pred.attr, _OPS[pred.op], pred.value) for pred in predicates)


def _pred_text(pred: SargablePredicate) -> str:
    return f"{pred.attr} {pred.op} {pred.value!r}"


def _filter_text(plan: SelectionPlan) -> str:
    """The ``explain`` suffix naming what a plan tests per object: its
    residual predicates and exists filters, or nothing."""
    if not (plan.residuals or plan.exists_filters):
        return ""
    filters = [_pred_text(pred) for pred in plan.residuals]
    filters += [
        f"exists {filt.set_attr}: {_pred_text(filt.child_pred)}"
        for filt in plan.exists_filters
    ]
    return f" [filter: {' and '.join(filters)}]"


def _passes(db: Database, tests: tuple[_Test, ...], om, handle) -> bool:
    """Do all ``tests`` hold on the object?  One attribute read and one
    predicate charge per test tried; the first failure ends it."""
    buckets = db.clock.buckets
    predicate_s = db.params.predicate_us / US_PER_S
    for attr, compare, bound in tests:
        value = om.get_attr(handle, attr)
        buckets[_CPU] += predicate_s
        if not compare(value, bound):
            return False
    return True


def _passes_exists(
    db: Database, filters: tuple[tuple[str, Callable], ...], om, handle
) -> bool:
    """Evaluate existential semijoin filters -- (set attribute, child
    test) pairs -- by navigating the set attribute until a matching
    child is found (short-circuit)."""
    for set_attr, child_passes in filters:
        children = db.iter_set_rids(om.get_attr(handle, set_attr))
        if om.fetch(children, child_passes, [], 1, False):
            return False  # room left: no child matched
    return True


def _compile_accept(db: Database, plan: SelectionPlan) -> Callable | None:
    """The plan's residual predicates and exists filters as one
    ``(om, handle) -> bool`` -- ``None`` when it has neither, so that a
    selection the index range answers whole tests nothing per row."""
    tests = _tests(plan.residuals)
    filters = tuple(
        (filt.set_attr, partial(_passes, db, _tests((filt.child_pred,))))
        for filt in plan.exists_filters
    )
    if tests and filters:
        return lambda om, handle: (
            _passes(db, tests, om, handle)
            and _passes_exists(db, filters, om, handle)
        )
    if tests:
        return partial(_passes, db, tests)
    if filters:
        return partial(_passes_exists, db, filters)
    return None


def _compile_projection(plan: SelectionPlan) -> Callable:
    """``(om, handle) -> row`` for the plan's select clause: the bare
    value of a single projected attribute, else a tuple in select-clause
    order; under an ``order by``, ``(sort key tuple, row)``.  Every
    attribute is read, and so charged, once per mention in the select
    clause plus once per order-by attribute it lacks."""
    project = plan.project
    fetch_attrs = list(project)
    for attr, __ in plan.order_by:
        if attr not in fetch_attrs:
            fetch_attrs.append(attr)
    if len(fetch_attrs) == 1 and not plan.order_by:
        (only,) = fetch_attrs
        return lambda om, handle: om.get_attr(handle, only)
    width = len(project)
    sort_at = [fetch_attrs.index(attr) for attr, __ in plan.order_by]

    def row_fn(om, handle):
        get_attr = om.get_attr
        values = [get_attr(handle, attr) for attr in fetch_attrs]
        row = tuple(values[:width]) if width > 1 else values[0]
        if sort_at:
            return tuple([values[at] for at in sort_at]), row
        return row

    return row_fn


class OQLEngine:
    """Parses, optimizes and executes OQL text against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        include_extensions: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
        optimizer: Optimizer | None = None,
    ):
        self.catalog = catalog
        #: The planner; inject one to share it (and what ``analyze``
        #: installs into it) across engines.
        self.optimizer = (
            optimizer if optimizer is not None
            else Optimizer(catalog, include_extensions)
        )
        self.batch_size = batch_size
        #: Pipeline stats of the most recent fully-drained ``execute``.
        self.last_stats: PipelineStats | None = None

    # -- public API ----------------------------------------------------

    def plan(
        self, source: str | Query, force: str | None = None
    ) -> SelectionPlan | TreeJoinPlan:
        """Plan a query; ``force`` names the alternative to take (see
        :meth:`Optimizer.plan`)."""
        query = parse(source) if isinstance(source, str) else source
        return self.optimizer.plan(query, force)

    def compile(
        self, source: str | Statement | SelectionPlan | TreeJoinPlan
    ) -> Operator:
        """Compile a statement (or an already-chosen plan) into an
        operator tree over a fresh :class:`PipelineContext`."""
        if isinstance(source, str):
            source = parse_statement(source)
        if isinstance(source, (ExplainStmt, AnalyzeStmt)):
            ctx = PipelineContext(self.catalog.db)
            if isinstance(source, ExplainStmt):
                return ExplainOperator(ctx, self, source)
            return AnalyzeOperator(ctx, self, source)
        if isinstance(source, (SelectionPlan, TreeJoinPlan)):
            plan = source
        else:
            plan = self.optimizer.plan(source)
        ctx = PipelineContext(self.catalog.db)
        if isinstance(plan, SelectionPlan):
            root = self._compile_selection(ctx, plan)
        else:
            root = self._compile_tree_join(ctx, plan)
        if plan.distinct:
            root = Distinct(ctx, root)
        if plan.limit is not None:
            root = Limit(ctx, root, plan.limit)
        return root

    def execute_iter(
        self,
        source: str | Statement | SelectionPlan | TreeJoinPlan,
        batch_size: int | None = None,
    ) -> Cursor:
        """Compile and return a streaming cursor over the result."""
        root = self.compile(source)
        return Cursor(root.ctx, root, batch_size or self.batch_size)

    def execute(self, source: str | Statement) -> list:
        """Run a statement; query rows come back as tuples in
        select-clause order, ``explain``/``analyze`` rows as strings."""
        with self.execute_iter(source) as cursor:
            rows = cursor.drain()
            self.last_stats = cursor.stats
        return rows

    # -- selections -----------------------------------------------------

    def _compile_selection(
        self, ctx: PipelineContext, plan: SelectionPlan
    ) -> Operator:
        info = self.catalog.collection(plan.collection_name)

        if plan.index is not None:
            low, high, inc_low, inc_high = plan.predicate.bounds()  # type: ignore[union-attr]
            scan_label = (
                f"IndexScan({plan.collection_name}."
                f"{_pred_text(plan.predicate)}"
                f"{', sorted rids' if plan.sorted_rids else ''})"
            )

        if plan.index_only:
            func, __attr = plan.aggregate  # type: ignore[misc]
            aggregate: Operator = IndexOnlyAggregate(
                ctx, plan.index, low, high, inc_low, inc_high, func  # type: ignore[arg-type]
            )
            aggregate.label = f"IndexOnlyAggregate[{func}]\n  {scan_label}"
            return aggregate

        if plan.index is None:
            rid_source: Operator = CollectionScan(ctx, info.collection)
        else:
            rid_source = IndexScan(
                ctx, plan.index, low, high, inc_low, inc_high,
                sorted_rids=plan.sorted_rids,
            )
            rid_source.label = scan_label

        accept = _compile_accept(self.catalog.db, plan)
        if plan.aggregate is not None:
            func, attr = plan.aggregate
            aggregate = FetchingAggregate(ctx, rid_source, accept, func, attr)
            aggregate.label = (
                f"FetchingAggregate[{func}({attr or '*'})]{_filter_text(plan)}"
            )
            return aggregate

        project = _compile_projection(plan)
        if accept is None:
            row_fn = project
        else:

            def row_fn(om, handle):
                return project(om, handle) if accept(om, handle) else SKIP

        fetched: Operator = Fetch(ctx, rid_source, row_fn)
        fetched.label = f"Fetch({', '.join(plan.project)}){_filter_text(plan)}"
        if plan.order_by:
            fetched = Sort(ctx, fetched, plan.order_by)
        return fetched

    # -- tree joins --------------------------------------------------------

    def _compile_tree_join(
        self, ctx: PipelineContext, plan: TreeJoinPlan
    ) -> Operator:
        rel = plan.relationship
        parent_index = self.catalog.index_for(rel.parent_collection, plan.parent_key)
        child_index = self.catalog.index_for(rel.child_collection, plan.child_key)
        if parent_index is None or child_index is None:
            raise PlanError("planned indexes vanished from the catalog")
        query = TreeJoinQuery(
            db=self.catalog.db,
            parent_index=parent_index,
            child_index=child_index,
            parent_high=plan.parent_high,
            child_high=plan.child_high,
            parent_key=plan.parent_key,
            child_key=plan.child_key,
            child_ref=rel.child_ref,
            parent_set=rel.set_attr,
            parent_project=plan.parent_project,
            child_project=plan.child_project,
        )
        join: Operator = JOIN_OPERATORS[plan.algorithm](ctx, query)
        join.label = (
            f"TreeJoin[{plan.algorithm}]({rel.parent_collection}."
            f"{rel.set_attr} -> {rel.child_collection})\n"
            f"  parent: {rel.parent_collection}.{plan.parent_key}"
            f" < {plan.parent_high!r} via index\n"
            f"  child:  {rel.child_collection}.{plan.child_key}"
            f" < {plan.child_high!r} via index"
        )
        if plan.parent_first:
            return join
        flip = Map(ctx, join, lambda row: (row[1], row[0]))
        flip.label = "Map(flip columns)"
        return flip
