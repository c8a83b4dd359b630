"""The Section 5 tree-join algorithms as streaming operators.

Each operator evaluates one :class:`~repro.exec.joins.TreeJoinQuery` and
emits ``(parent_value, child_value)`` rows in batches.  Blocking
prefixes — the rid-sorted index scans, hash builds, SMJ's sorts, the
hybrid join's spill bookkeeping — run in ``open()``; the probe/navigate
side streams.  Fully drained, every operator charges exactly the
simulated time (and touches pages in exactly the order) of its
materializing ancestor in ``exec/joins.py``.

One deliberate deviation, cost-neutral by construction: NL's legacy loop
held the parent handle open while navigating its children.  The
streaming operator reads both parent attributes and *unreferences the
parent before the child loop*, so no handle spans a batch boundary.
Handle charges are per get/unreference call and NL never revisits a rid
(each parent is borrowed once; each child belongs to exactly one
parent), so the charge totals — and the page access order — are
unchanged; only the live-handle high-water mark drops from 2 to 1.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.exec.hash_table import (
    CHJ_BUCKET_BYTES,
    CHJ_CHILD_BYTES,
    QueryHashTable,
    phj_table_bytes,
)
from repro.exec.operators.base import (
    DEFAULT_BATCH_SIZE,
    Cursor,
    Operator,
    PipelineContext,
)
from repro.exec.sorter import sort_charged
from repro.simtime import Bucket
from repro.units import US_PER_S, pages_for_bytes

if TYPE_CHECKING:  # runtime import would cycle: exec.joins wraps us
    from repro.exec.joins import TreeJoinQuery


class TreeJoinOperator(Operator):
    """Common plumbing: the bound query and its database."""

    def __init__(self, ctx: PipelineContext, q: "TreeJoinQuery"):
        super().__init__(ctx)
        self.q = q

    @property
    def db(self):
        return self.q.db


class NavigationParentToChild(TreeJoinOperator):
    """**NL** — parent-to-child pure navigation, streaming."""

    def _open(self) -> None:
        self._parents = self.q.selected_parents()
        self._parent_value: object = None
        self._children = iter(())

    def _next(self, n: int) -> list:
        q, db, om = self.q, self.db, self.db.manager
        buckets = db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        predicate_s = db.params.predicate_us / US_PER_S
        out: list = []
        while len(out) < n:
            child_rid = next(self._children, None)
            if child_rid is None:
                parent_rid = next(self._parents, None)
                if parent_rid is None:
                    break
                with om.borrow(parent_rid) as parent:
                    self._parent_value = om.get_attr(parent, q.parent_project)
                    children = om.get_attr(parent, q.parent_set)
                self._children = db.iter_set_rids(children)
                continue
            with om.borrow(child_rid) as child:
                key = om.get_attr(child, q.child_key)
                buckets[Bucket.CPU] += predicate_s
                if key < q.child_high:  # type: ignore[operator]
                    row = (self._parent_value, om.get_attr(child, q.child_project))
                    buckets[Bucket.RESULT] += row_s
                    out.append(row)
        return out

    def _close(self) -> None:
        self._parents = iter(())
        self._children = iter(())


class NavigationChildToParent(TreeJoinOperator):
    """**NOJOIN** — child-to-parent pure navigation, streaming."""

    def _open(self) -> None:
        self._children = self.q.selected_children()

    def _next(self, n: int) -> list:
        q, db, om = self.q, self.db, self.db.manager
        buckets = db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        predicate_s = db.params.predicate_us / US_PER_S
        out: list = []
        while len(out) < n:
            child_rid = next(self._children, None)
            if child_rid is None:
                break
            with om.borrow(child_rid) as child:
                parent_rid = om.get_attr(child, q.child_ref)
                if parent_rid is not None:
                    with om.borrow(parent_rid) as parent:
                        key = om.get_attr(parent, q.parent_key)
                        buckets[Bucket.CPU] += predicate_s
                        if key < q.parent_high:  # type: ignore[operator]
                            row = (
                                om.get_attr(parent, q.parent_project),
                                om.get_attr(child, q.child_project),
                            )
                            buckets[Bucket.RESULT] += row_s
                            out.append(row)
        return out

    def _close(self) -> None:
        self._children = iter(())


class HashParentsJoin(TreeJoinOperator):
    """**PHJ** — hash the parents (build in ``open``), probe with the
    children (streamed)."""

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        self._table = QueryHashTable(
            db.clock, db.params, db.counters, entry_bytes=phj_table_bytes(1)
        )
        for rid in q.selected_parents():
            with om.borrow(rid) as parent:
                self._table.insert(rid, om.get_attr(parent, q.parent_project))
        self._children = q.selected_children()

    def _next(self, n: int) -> list:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        out: list = []
        while len(out) < n:
            child_rid = next(self._children, None)
            if child_rid is None:
                break
            with om.borrow(child_rid) as child:
                parent_rid = om.get_attr(child, q.child_ref)
                info = self._table.probe(parent_rid)
                if info is not None:
                    row = (info, om.get_attr(child, q.child_project))
                    buckets[Bucket.RESULT] += row_s
                    out.append(row)
        return out

    def _close(self) -> None:
        self._table = None
        self._children = iter(())


class HashChildrenJoin(TreeJoinOperator):
    """**CHJ** — hash the children (build in ``open``), probe with the
    parents (streamed).

    A probed parent can match many children; matches that overflow the
    current batch wait in a pending queue (counted against
    ``peak_rows``) and are charged as they are emitted — which keeps the
    charge order identical, since the next parent is not probed until
    the queue drains.
    """

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        self._table = QueryHashTable(
            db.clock,
            db.params,
            db.counters,
            entry_bytes=CHJ_CHILD_BYTES,
            bucket_bytes=CHJ_BUCKET_BYTES,
        )
        for rid in q.selected_children():
            with om.borrow(rid) as child:
                self._table.insert(
                    om.get_attr(child, q.child_ref),
                    om.get_attr(child, q.child_project),
                )
        self._parents = q.selected_parents()
        self._pending: deque = deque()

    def _next(self, n: int) -> list:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        out: list = []
        while len(out) < n:
            if self._pending:
                row = self._pending.popleft()
                self.ctx.note_released(1)
                buckets[Bucket.RESULT] += row_s
                out.append(row)
                continue
            parent_rid = next(self._parents, None)
            if parent_rid is None:
                break
            matches = self._table.probe_all(parent_rid)
            if not matches:
                continue
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
            for child_value in matches:
                self._pending.append((parent_value, child_value))
                self.ctx.note_buffered(1)
        return out

    def _close(self) -> None:
        self.ctx.note_released(len(self._pending))
        self._pending = deque()
        self._table = None
        self._parents = iter(())


class SortMergeJoin(TreeJoinOperator):
    """Sort-merge pointer join — both sides materialized and sorted in
    ``open`` (the algorithm is blocking by nature), merge streamed.

    The child-pairs buffer carries projected values and counts against
    ``peak_rows``; the parent side is index entries (16 bytes each to
    the sort's memory model) — bookkeeping, like a rid table, and not
    counted.
    """

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        child_pairs = []
        for rid in q.selected_children():
            with om.borrow(rid) as child:
                parent_rid = om.get_attr(child, q.child_ref)
                if parent_rid is not None:
                    child_pairs.append(
                        (parent_rid, om.get_attr(child, q.child_project))
                    )
        self._child_pairs = sort_charged(
            child_pairs, db.clock, db.params, key=lambda p: p[0], bytes_per_item=16
        )
        self.ctx.note_buffered(len(self._child_pairs))

        self._parent_rids = sort_charged(
            list(q.selected_parents()), db.clock, db.params, bytes_per_item=16
        )
        self._p = 0          # next parent entry
        self._i = 0          # merge frontier in child_pairs
        self._group: tuple | None = None   # (parent_rid, parent_value, j)

    def _next(self, n: int) -> list:
        db, om, q = self.db, self.db.manager, self.q
        pairs, parents = self._child_pairs, self._parent_rids
        buckets = db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        compare_s = db.params.compare_us / US_PER_S
        out: list = []
        while len(out) < n:
            if self._group is not None:
                parent_rid, parent_value, j = self._group
                if j < len(pairs) and pairs[j][0] == parent_rid:
                    buckets[Bucket.CPU] += compare_s
                    row = (parent_value, pairs[j][1])
                    buckets[Bucket.RESULT] += row_s
                    out.append(row)
                    self._group = (parent_rid, parent_value, j + 1)
                    continue
                self._i = j
                self._group = None
            if self._p >= len(parents):
                break
            parent_rid = parents[self._p]
            self._p += 1
            while self._i < len(pairs) and pairs[self._i][0] < parent_rid:
                buckets[Bucket.CPU] += compare_s
                self._i += 1
            if self._i >= len(pairs):
                self._p = len(parents)
                break
            if pairs[self._i][0] != parent_rid:
                continue
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
            self._group = (parent_rid, parent_value, self._i)
        return out

    def _close(self) -> None:
        self.ctx.note_released(len(self._child_pairs))
        self._child_pairs = []
        self._parent_rids = []


class HybridHashParentsJoin(TreeJoinOperator):
    """Hybrid-hash PHJ — spill bookkeeping up front, probes streamed.

    The spilled *probe* pages depend on how many children were actually
    probed, so that charge lands when the probe stream ends — at
    exhaustion, or on early close for the probes already made.
    """

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        budget = db.params.memory.query_memory_bytes

        parents = []
        for rid in q.selected_parents():
            with om.borrow(rid) as parent:
                parents.append((rid, om.get_attr(parent, q.parent_project)))
        table_bytes = phj_table_bytes(len(parents))
        self._spill_fraction = 0.0
        if budget and table_bytes > budget:
            self._spill_fraction = (table_bytes - budget) / table_bytes

        spilled_build_pages = pages_for_bytes(
            int(table_bytes * self._spill_fraction)
        )
        self._charge_spill_pages(spilled_build_pages)

        self._table = QueryHashTable(
            db.clock,
            db.params,
            db.counters,
            entry_bytes=phj_table_bytes(1),
            budget_bytes=table_bytes,  # partitions always fit: no thrash
        )
        for parent_rid, value in parents:
            self._table.insert(parent_rid, value)

        self._children = q.selected_children()
        self._probe_bytes = 0
        self._spill_charged = False

    def _charge_spill_pages(self, pages: int) -> None:
        db = self.db
        for __ in range(pages):
            db.clock.charge_ms(Bucket.IO, db.params.page_write_ms)
            db.clock.charge_ms(Bucket.IO, db.params.page_read_ms)
            db.counters.disk_writes += 1
            db.counters.disk_reads += 1

    def _charge_probe_spill(self) -> None:
        if self._spill_charged:
            return
        self._spill_charged = True
        self._charge_spill_pages(pages_for_bytes(self._probe_bytes))

    def _next(self, n: int) -> list:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s(q.transactional_result)
        out: list = []
        while len(out) < n:
            child_rid = next(self._children, None)
            if child_rid is None:
                self._charge_probe_spill()
                break
            with om.borrow(child_rid) as child:
                parent_rid = om.get_attr(child, q.child_ref)
                self._probe_bytes += int(16 * self._spill_fraction)
                info = self._table.probe(parent_rid)
                if info is not None:
                    row = (info, om.get_attr(child, q.child_project))
                    buckets[Bucket.RESULT] += row_s
                    out.append(row)
        return out

    def _close(self) -> None:
        self._charge_probe_spill()
        self._table = None
        self._children = iter(())


#: Operator classes by the paper's algorithm names (mirrors
#: ``exec.joins.ALGORITHMS``).
JOIN_OPERATORS: dict[str, type[TreeJoinOperator]] = {
    "NL": NavigationParentToChild,
    "NOJOIN": NavigationChildToParent,
    "PHJ": HashParentsJoin,
    "CHJ": HashChildrenJoin,
    "SMJ": SortMergeJoin,
    "PHJ-HYBRID": HybridHashParentsJoin,
}


def build_join(q: "TreeJoinQuery", algorithm: str) -> TreeJoinOperator:
    """Instantiate the named join operator over a fresh context."""
    return JOIN_OPERATORS[algorithm](PipelineContext(q.db), q)


def drain_algorithm(
    q: "TreeJoinQuery", algorithm: str, batch_size: int = DEFAULT_BATCH_SIZE
) -> list[tuple]:
    """Run the named algorithm to completion; the legacy list API."""
    op = build_join(q, algorithm)
    with Cursor(op.ctx, op, batch_size) as cursor:
        return cursor.drain()
