"""The paper's four tree-query algorithms, plus the two it points at,
as streaming operators.

All six evaluate the same query over a parent/child hierarchy::

    select [parent.P_ATTR, child.C_ATTR]
    from p in Parents, c in p.children
    where c.CHILD_KEY < k1 and p.PARENT_KEY < k2

on a database where parents carry a ``children`` ref-set and children a
back-reference.  The :class:`TreeJoinQuery` names the pieces, so the
algorithms work for any such schema (Derby doctors/patients, the XML
example, ...).

Conventions shared by all algorithms, following Section 5:

* both predicates are evaluated through *clustered* indexes whenever the
  algorithm's access pattern allows an index at all;
* hash tables store whatever ``f(p, pa)`` needs (here: one projected
  attribute), sized by Figure 10's model;
* results are built under standard transaction mode.

Each operator emits ``(parent_value, child_value)`` rows.  Blocking
prefixes — the rid-sorted index scans, hash builds, SMJ's sorts, the
hybrid join's spill bookkeeping — run in ``_open``; the probe/navigate
side is the operator's row generator, the paper's loop with a ``yield``
where it adds to the result.  No generator yields inside a ``borrow``
bracket: the row is built and charged inside, and yielded after, so no
handle crosses a batch boundary.  :data:`ALGORITHMS` drains an operator
into the full row list for the figures and the harnesses; streaming
consumers (``OQLEngine.execute_iter``) pull the same classes batch by
batch, at identical charged cost.

One deliberate deviation from the paper's pseudo-code, cost-neutral by
construction: NL reads both parent attributes and *unreferences the
parent before the child loop*, instead of holding the parent handle
open while navigating its children.  Handle charges are per
get/unreference call and NL never revisits a rid (each parent is
borrowed once; each child belongs to exactly one parent), so the charge
totals — and the page access order — are unchanged; only the
live-handle high-water mark drops from 2 to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

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
from repro.index.btree import BTreeIndex
from repro.objects.database import Database
from repro.simtime import Bucket
from repro.storage.rid import Rid
from repro.units import US_PER_S, pages_for_bytes


@dataclass
class TreeJoinQuery:
    """One instance of the tree query, bound to a database."""

    db: Database
    parent_index: BTreeIndex        # parents by PARENT_KEY (clustered)
    child_index: BTreeIndex         # children by CHILD_KEY (clustered)
    parent_high: object             # PARENT_KEY < parent_high
    child_high: object              # CHILD_KEY < child_high
    n_parents: int                  # parent domain size (CHJ directory)
    parent_key: str = "upin"
    child_key: str = "mrn"
    child_ref: str = "primary_care_provider"
    parent_set: str = "clients"
    parent_project: str = "name"
    child_project: str = "age"

    # -- index scans both sides share ------------------------------------
    #
    # Both scans materialize the qualifying rids and *sort them by
    # physical address* before fetching — the paper's own Figure 8
    # technique, and the reason it can state that the hash joins "access
    # them in a sequential way" and that under NOJOIN "patients (the
    # large collection) are always accessed sequentially" even when the
    # key order does not match the physical layout (composition/random
    # organizations).

    def selected_parents(self) -> Iterator[Rid]:
        return self._selected(self.parent_index, self.parent_high)

    def selected_children(self) -> Iterator[Rid]:
        return self._selected(self.child_index, self.child_high)

    def _selected(self, index: BTreeIndex, high: object) -> Iterator[Rid]:
        """Rids of the objects keyed below ``high``, in physical order."""
        rids = [rid for __, rid in index.range_scan(None, high, include_high=False)]
        return iter(sort_charged(rids, self.db.clock, self.db.params))


class TreeJoinOperator(Operator):
    """Common plumbing: the bound query and its database."""

    def __init__(self, ctx: PipelineContext, q: TreeJoinQuery):
        super().__init__(ctx)
        self.q = q

    @property
    def db(self):
        return self.q.db


class NavigationParentToChild(TreeJoinOperator):
    """**NL** — parent-to-child pure navigation.

    Only the parent index is usable (children are reached through their
    parents), so the child predicate is tested on every child of every
    selected parent: the big handicap the paper calls out, since the
    child collection can be a thousand times larger.
    """

    def _open(self) -> None:
        self._parents = self.q.selected_parents()

    def _rows(self) -> Iterator[tuple]:
        q, db, om = self.q, self.db, self.db.manager
        buckets = db.clock.buckets
        row_s = self.ctx.result_s()
        predicate_s = db.params.predicate_us / US_PER_S
        for parent_rid in self._parents:
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
                children = om.get_attr(parent, q.parent_set)
            for child_rid in db.iter_set_rids(children):
                row = None
                with om.borrow(child_rid) as child:
                    key = om.get_attr(child, q.child_key)
                    buckets[Bucket.CPU] += predicate_s
                    if key < q.child_high:  # type: ignore[operator]
                        row = (parent_value, om.get_attr(child, q.child_project))
                        buckets[Bucket.RESULT] += row_s
                if row is not None:
                    yield row


class NavigationChildToParent(TreeJoinOperator):
    """**NOJOIN** — child-to-parent pure navigation.

    Uses the index of the *largest* collection, but may test the parent
    predicate once per child (up to 1,000 times per parent); "the join
    is hidden within the navigation pattern".
    """

    def _open(self) -> None:
        self._children = self.q.selected_children()

    def _rows(self) -> Iterator[tuple]:
        q, db, om = self.q, self.db, self.db.manager
        buckets = db.clock.buckets
        row_s = self.ctx.result_s()
        predicate_s = db.params.predicate_us / US_PER_S
        for child_rid in self._children:
            row = None
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
            if row is not None:
                yield row


class HashParentsJoin(TreeJoinOperator):
    """**PHJ** — hash the parents (build in ``_open``), probe with the
    children (streamed).

    Both indexes apply and both collections are read sequentially; the
    table holds (parent id, parent information) per selected parent.
    """

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        self._table = QueryHashTable(
            db.clock, db.params, db.counters, entry_bytes=phj_table_bytes(1)
        )
        for rid in q.selected_parents():
            with om.borrow(rid) as parent:
                self._table.insert(rid, om.get_attr(parent, q.parent_project))
        self._children = q.selected_children()

    def _rows(self) -> Iterator[tuple]:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s()
        for child_rid in self._children:
            row = None
            with om.borrow(child_rid) as child:
                parent_rid = om.get_attr(child, q.child_ref)
                info = self._table.probe(parent_rid)
                if info is not None:
                    row = (info, om.get_attr(child, q.child_project))
                    buckets[Bucket.RESULT] += row_s
            if row is not None:
                yield row


class HashChildrenJoin(TreeJoinOperator):
    """**CHJ** — hash the children by parent (build in ``_open``), probe
    with the parents (streamed).

    The paper's variation of the pointer-based join of Shekita & Carey
    [14]: because there is no hybrid hashing, the parent collection can
    be scanned *sequentially* instead of in hash order.  The price is a
    table holding the children — 3 to 1000 times more entries — over a
    bucket directory covering the whole parent domain (Figure 10).

    A probed parent can match many children; its matches are yielded
    straight from the table's list and charged as they are emitted, so
    the next parent is not probed until the last one's matches are out.
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

    def _rows(self) -> Iterator[tuple]:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s()
        for parent_rid in self._parents:
            matches = self._table.probe_all(parent_rid)
            if not matches:
                continue
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
            for child_value in matches:
                buckets[Bucket.RESULT] += row_s
                yield (parent_value, child_value)


class SortMergeJoin(TreeJoinOperator):
    """**SMJ** — sort-merge pointer join, the family the paper "started
    testing ... but they proved to be worse than hash-based ones and we
    dropped them".  Kept for the ablation benchmark.

    Children are reduced to (parent rid, projected value) pairs and
    sorted by parent rid; parents arrive rid-sorted from their clustered
    index scan; a merge pass pairs them up.  Both sides are materialized
    and sorted in ``_open`` (the algorithm is blocking by nature), the
    merge is streamed.

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

    def _rows(self) -> Iterator[tuple]:
        db, om, q = self.db, self.db.manager, self.q
        pairs = self._child_pairs
        buckets = db.clock.buckets
        row_s = self.ctx.result_s()
        compare_s = db.params.compare_us / US_PER_S
        i, end = 0, len(pairs)  # the merge frontier in ``pairs``
        for parent_rid in self._parent_rids:
            while i < end and pairs[i][0] < parent_rid:
                buckets[Bucket.CPU] += compare_s
                i += 1
            if i == end:
                return
            if pairs[i][0] != parent_rid:
                continue
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
            while i < end and pairs[i][0] == parent_rid:
                buckets[Bucket.CPU] += compare_s
                buckets[Bucket.RESULT] += row_s
                yield (parent_value, pairs[i][1])
                i += 1

    def _close(self) -> None:
        self.ctx.note_released(len(self._child_pairs))


class HybridHashParentsJoin(TreeJoinOperator):
    """**PHJ-HYBRID** — hybrid-hash PHJ, the improvement the paper names
    but never ran ("we did not consider hybrid hashing [17] to optimize
    this").

    When the parent table would exceed the memory budget, the overflow
    fraction of both inputs is partitioned to disk and re-read, instead
    of letting the OS thrash: the swap penalty is replaced by sequential
    partition I/O, which is the entire point of hybrid hashing.  The
    build side's spill is charged up front, in ``_open``; the spilled
    *probe* pages depend on how many children were actually probed, so
    that charge lands when the probe stream ends — at exhaustion, or on
    early close for the probes already made.
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

    def _charge_spill_pages(self, pages: int) -> None:
        db = self.db
        for __ in range(pages):
            db.clock.charge_ms(Bucket.IO, db.params.page_write_ms)
            db.clock.charge_ms(Bucket.IO, db.params.page_read_ms)
            db.counters.disk_writes += 1
            db.counters.disk_reads += 1

    def _rows(self) -> Iterator[tuple]:
        q, om = self.q, self.db.manager
        buckets = self.db.clock.buckets
        row_s = self.ctx.result_s()
        probe_spill = int(16 * self._spill_fraction)
        try:
            for child_rid in self._children:
                row = None
                with om.borrow(child_rid) as child:
                    parent_rid = om.get_attr(child, q.child_ref)
                    self._probe_bytes += probe_spill
                    info = self._table.probe(parent_rid)
                    if info is not None:
                        row = (info, om.get_attr(child, q.child_project))
                        buckets[Bucket.RESULT] += row_s
                if row is not None:
                    yield row
        finally:
            # Exactly once: here at exhaustion, or when ``close()``
            # closes the suspended generator after an early exit.
            self._charge_spill_pages(pages_for_bytes(self._probe_bytes))


#: The one registry: operator classes by the paper's algorithm names.
JOIN_OPERATORS: dict[str, type[TreeJoinOperator]] = {
    "NL": NavigationParentToChild,
    "NOJOIN": NavigationChildToParent,
    "PHJ": HashParentsJoin,
    "CHJ": HashChildrenJoin,
    "SMJ": SortMergeJoin,
    "PHJ-HYBRID": HybridHashParentsJoin,
}


def build_join(q: TreeJoinQuery, algorithm: str) -> TreeJoinOperator:
    """Instantiate the named join operator over a fresh context."""
    return JOIN_OPERATORS[algorithm](PipelineContext(q.db), q)


def drain_algorithm(
    q: TreeJoinQuery, algorithm: str, batch_size: int = DEFAULT_BATCH_SIZE
) -> list[tuple]:
    """Run the named algorithm to completion and return every row."""
    op = build_join(q, algorithm)
    with Cursor(op.ctx, op, batch_size) as cursor:
        return cursor.drain()


#: ``name -> (TreeJoinQuery -> rows)`` for the figures, the benchmark
#: harness and the optimizer's validation: each entry drains the operator
#: of the same name.  The key order is the harness's op order.
ALGORITHMS: dict[str, Callable[[TreeJoinQuery], list[tuple]]] = {
    name: partial(drain_algorithm, algorithm=name) for name in JOIN_OPERATORS
}
