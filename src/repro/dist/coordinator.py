"""The distributed query coordinator.

Given one OQL query and a :class:`~repro.dist.cluster.ShardedCluster`,
the coordinator rewrites the query into per-shard work and recombines
the shard streams into the single-node answer.

Every query is **query-shipped**: the OQL text goes to every shard, and
each shard plans and runs it with its own planner (never analyzed) over
its own slice.  Because patients are co-located with their providers
(:mod:`repro.dist.partition`), selections, navigation joins and
``exists`` semijoins are all *shard-local*: the distributed answer is
the bag union of the shard answers.  Only the recombination concerns
the coordinator:

* **aggregates** are decomposed into per-shard partials — ``count`` and
  ``sum`` re-sum, ``min``/``max`` re-minimize, and ``avg`` is rewritten
  into per-shard ``sum`` + ``count`` pairs (averaging averages would
  weight shards equally regardless of size);
* **order by** cannot be merged for free: sort keys missing from the
  select are appended to a rewritten select tuple, the shards' own sort
  is dropped (kept only under ``limit``, where per-shard top-k prunes
  the wire), the coordinator re-sorts centrally, then strips the
  appended columns;
* **distinct** is pushed down (shards dedupe their slice) and re-applied
  centrally (values can repeat *across* shards);
* **limit** is pushed down (no shard needs to send more than the limit)
  and re-applied to the merged stream.

Rows travel through :class:`~repro.dist.exchange.ExchangeOperator`, so
elapsed time reflects shards working in parallel, and every batch pays
RPC + page-transfer costs on the coordinator's timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dist.cluster import ShardedCluster
from repro.dist.exchange import (
    ROW_WIRE_BYTES,
    ExchangeOperator,
    coordinator_context,
)
from repro.errors import DistPlanError, ReproError
from repro.exec.operators.base import Cursor
from repro.exec.operators.transforms import finish_aggregate
from repro.oql.ast_nodes import (
    AggregateExpr,
    Expr,
    Path,
    Query,
    TupleExpr,
)
from repro.oql.parser import parse
from repro.oql.printer import print_query
from repro.simtime import Bucket

_CPU = Bucket.CPU
_SORT = Bucket.SORT


@dataclass
class DistPlan:
    """One distributed execution recipe."""

    query: Query
    #: OQL text shipped to every shard (two entries for a decomposed avg).
    shard_texts: tuple[str, ...]
    merge: str                          # "rows" | "aggregate"
    agg_func: str | None = None
    #: Columns of the original select (before appended sort keys).  With
    #: one, the rows are bare values, not tuples, as on a single node.
    n_select: int = 1
    #: Sort-key columns appended to the shard select by the rewrite.
    appended: int = 0
    #: Central sort spec: (column index, descending) per order-by term.
    sort_cols: tuple[tuple[int, bool], ...] = ()
    distinct: bool = False
    limit: int | None = None

    def description(self) -> str:
        return f"query-ship {self.merge} merge"


class Coordinator:
    """Plans and executes OQL over every shard of a cluster."""

    def __init__(self, cluster: ShardedCluster, batch_size: int = 256):
        self.cluster = cluster
        self.batch_size = batch_size
        #: The most recent plan ``execute`` ran (diagnostics).
        self.last_plan: DistPlan | None = None

    # -- planning -------------------------------------------------------

    def plan(self, source: str | Query) -> DistPlan:
        query = parse(source) if isinstance(source, str) else source
        if isinstance(query.select, AggregateExpr):
            return self._plan_aggregate(query)
        return self._plan_rows(query)

    def _plan_rows(self, query: Query) -> DistPlan:
        select_paths = _select_paths(query)
        n_select = len(select_paths)
        sort_cols: list[tuple[int, bool]] = []
        appended = 0
        fields = [(f"c{i}", p) for i, p in enumerate(select_paths)]
        for term in query.order_by:
            try:
                col = select_paths.index(term.key)
            except ValueError:
                if len(query.from_clauses) != 1:
                    raise DistPlanError(
                        "distributed order by over a join requires every "
                        "sort key in the select clause"
                    ) from None
                if query.distinct:
                    raise DistPlanError(
                        "distributed distinct + order by requires every "
                        "sort key in the select clause (appending keys "
                        "would change what distinct dedupes)"
                    ) from None
                col = len(fields)
                appended += 1
                fields.append((f"ob{col}", term.key))
            sort_cols.append((col, term.descending))
        shard_select: Expr = TupleExpr(tuple(fields)) if appended else query.select
        # Shards only sort when their top-k prunes the wire; otherwise
        # their order is wasted work (the coordinator re-sorts anyway).
        keep_shard_order = bool(query.order_by) and query.limit is not None
        shard_query = Query(
            select=shard_select,
            from_clauses=query.from_clauses,
            where=query.where,
            distinct=query.distinct,
            order_by=query.order_by if keep_shard_order else (),
            limit=query.limit,
        )
        return DistPlan(
            query=query,
            shard_texts=(print_query(shard_query),),
            merge="rows",
            n_select=n_select,
            appended=appended,
            sort_cols=tuple(sort_cols),
            distinct=query.distinct,
            limit=query.limit,
        )

    def _plan_aggregate(self, query: Query) -> DistPlan:
        agg: AggregateExpr = query.select  # type: ignore[assignment]
        if query.distinct or query.order_by or query.limit is not None:
            raise DistPlanError(
                "distributed aggregates take no distinct/order by/limit"
            )
        if agg.func == "avg":
            # avg of averages is wrong unless shards are equal-sized;
            # ship sum + count and divide at the coordinator.
            texts = tuple(
                print_query(
                    Query(
                        select=AggregateExpr(func, agg.arg if func == "sum" else None),
                        from_clauses=query.from_clauses,
                        where=query.where,
                    )
                )
                for func in ("sum", "count")
            )
        else:
            texts = (print_query(query),)
        return DistPlan(
            query=query,
            shard_texts=texts,
            merge="aggregate",
            agg_func=agg.func,
        )

    # -- execution ------------------------------------------------------

    def execute(
        self,
        source: str | Query,
        on_batch=None,
        batch_size: int | None = None,
    ) -> list:
        """Run the query across every shard; returns the merged rows,
        shaped exactly like the single-node engine's answer."""
        self.cluster.tick()
        plan = self.plan(source)
        self.last_plan = plan
        if plan.merge == "aggregate":
            return self._merge_aggregate(plan)
        rows = self._open_exchange(plan, on_batch, batch_size).drain()
        return self._finish_rows(plan, rows)

    # -- helpers --------------------------------------------------------

    def _open_exchange(self, plan, on_batch, batch_size) -> Cursor:
        text = plan.shard_texts[0]
        cluster = self.cluster
        cluster.tick()
        streams: list = []
        try:
            for node in cluster.nodes:
                # Fail fast before building cursors on the other shards:
                # an exchange is all-shards-or-nothing.
                cluster._check_route(node)
                streams.append((node, node.engine.execute_iter(text)))
        except BaseException:
            # Don't leak the shard cursors already built when a later
            # shard refuses (down, fenced, or a planning error).
            for stream_node, cursor in streams:
                if stream_node.down:
                    continue
                try:
                    cursor.close()
                except ReproError:
                    pass
            raise
        ctx = coordinator_context(self.cluster)
        exchange = ExchangeOperator(
            ctx, self.cluster, streams, on_batch=on_batch
        )
        return Cursor(ctx, exchange, batch_size or self.batch_size)

    def _merge_aggregate(self, plan) -> list:
        cluster = self.cluster
        if plan.agg_func == "avg":
            sum_text, count_text = plan.shard_texts

            def shard_fn(node):
                return lambda: (
                    node.engine.execute(sum_text)[0],
                    node.engine.execute(count_text)[0],
                )

            parts = cluster.fanout(
                [(node, shard_fn(node)) for node in cluster.nodes],
                nbytes=2 * ROW_WIRE_BYTES,
            )
            total = sum(p[0] for p in parts)
            count = sum(p[1] for p in parts)
            return [finish_aggregate("avg", count, total, None, None)]
        text = plan.shard_texts[0]
        parts = cluster.fanout(
            [
                (node, (lambda node=node: node.engine.execute(text)[0]))
                for node in cluster.nodes
            ],
            nbytes=ROW_WIRE_BYTES,
        )
        if plan.agg_func in ("count", "sum"):
            return [sum(parts)]
        values = [p for p in parts if p is not None]
        if not values:
            return [None]
        return [min(values) if plan.agg_func == "min" else max(values)]

    def _finish_rows(self, plan, rows: list) -> list:
        """Central recombination: re-dedupe, re-sort, strip, re-limit."""
        clock = self.cluster.clock
        params = self.cluster.params
        if plan.distinct:
            seen = set()
            deduped = []
            for row in rows:
                clock.charge_us(_CPU, params.hash_probe_us)
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        if plan.sort_cols:
            scalar_rows = plan.n_select == 1 and plan.appended == 0
            n = len(rows)
            # Stable multi-pass sort, minor key first, one charged
            # n·log2(n) pass per key (matching the single-node price).
            for col, descending in reversed(plan.sort_cols):
                if n > 1:
                    clock.charge_us(
                        _SORT,
                        params.sort_per_element_log_us * n * math.log2(n),
                    )
                if scalar_rows:
                    rows.sort(reverse=descending)
                else:
                    rows.sort(key=lambda r, c=col: r[c], reverse=descending)
        if plan.appended:
            if plan.n_select == 1:
                rows = [row[0] for row in rows]
            else:
                rows = [row[: plan.n_select] for row in rows]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return rows


# -- query-shape helpers ------------------------------------------------


def _select_paths(query: Query) -> list[Path]:
    """The select clause as a list of paths.  One path means scalar rows,
    whether it is bare or a one-field tuple: the single-node engine
    projects a lone attribute as its value."""
    select = query.select
    if isinstance(select, TupleExpr):
        paths = []
        for __name, value in select.fields:
            if not isinstance(value, Path):
                raise DistPlanError(
                    f"distributed select tuples must hold paths, got {value!r}"
                )
            paths.append(value)
        return paths
    if isinstance(select, Path):
        return [select]
    raise DistPlanError(
        f"cannot distribute select expression {select!r}"
    )
