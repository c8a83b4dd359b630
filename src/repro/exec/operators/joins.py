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
side is the operator's ``_next(n)``, or for CHJ and SMJ, whose matches
span batches, a row generator.  Every per-object loop over a rid stream
-- builds, probes, NL's children, NOJOIN's children -- is one call of
``ObjectManager.fetch`` with a row function: rows are built inside the
kernel and leave it with the handle unreferenced, and a ``_next(n)``
passes ``room = n``, so it reads no rid past the rows asked for and no
handle crosses a batch boundary.  A row function captures what it reads
(the query, the table, the prices), never its operator, so no operator
is a cycle.  The OQL engine compiles a tree-join plan into one of these
classes (``JOIN_OPERATORS``); the figures reach them through a forced
plan.

Under a snapshot (snapshot isolation), an object with no version the
snapshot can see -- created after the reader began -- is passed over,
as ``Fetch`` and ``FetchingAggregate`` pass it over: the kernel drops
the build entry, the probe or the child it would have read.  A parent
NOJOIN borrows inside a child's row function is passed over the same
way, and takes the child with it.

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
from typing import Iterator

from repro.exec.hash_table import (
    CHJ_BUCKET_BYTES,
    CHJ_CHILD_BYTES,
    QueryHashTable,
    phj_table_bytes,
)
from repro.exec.operators.base import Operator, PipelineContext
from repro.exec.sorter import RID_PAIR_BYTES, sort_charged
from repro.index.btree import BTreeIndex
from repro.objects.database import Database
from repro.simtime import Bucket, spilled_bytes
from repro.storage.rid import Rid
from repro.units import US_PER_S, pages_for_bytes

_IO = Bucket.IO
_CPU = Bucket.CPU
_RESULT = Bucket.RESULT


@dataclass
class TreeJoinQuery:
    """One instance of the tree query, bound to a database."""

    db: Database
    parent_index: BTreeIndex        # parents by PARENT_KEY (clustered)
    child_index: BTreeIndex         # children by CHILD_KEY (clustered)
    parent_high: object             # PARENT_KEY < parent_high
    child_high: object              # CHILD_KEY < child_high
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
        rids = list(index.rid_scan(None, high, include_high=False))
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
        #: The children of the parent under navigation, and the row
        #: function that pairs each with that parent's value.
        self._children: Iterator[Rid] = iter(())
        self._child_row = None

    def _next(self, n: int) -> list:
        q, db = self.q, self.db
        om = db.manager
        row_s = self.ctx.result_s()
        out: list = []
        room = om.fetch(self._children, self._child_row, out, n, None, row_s)
        if room:
            predicate_s = db.params.predicate_us / US_PER_S
            for parent_rid in self._parents:
                with om.borrow(parent_rid) as parent:
                    parent_value = om.get_attr(parent, q.parent_project)
                    children = om.get_attr(parent, q.parent_set)
                self._children = db.iter_set_rids(children)
                self._child_row = _child_row(
                    q, db.clock.buckets, predicate_s, parent_value
                )
                room = om.fetch(
                    self._children, self._child_row, out, room, None, row_s
                )
                if not room:
                    break
        return out


def _child_row(q: TreeJoinQuery, buckets, predicate_s: float, parent_value):
    """NL's row function over one parent's children: the child
    predicate, then the pair.  Built per parent, and apart from the
    operator, which keeps it across batches."""
    key_name, high, project = q.child_key, q.child_high, q.child_project

    def child_row(om, child):
        key = om.get_attr(child, key_name)
        buckets[_CPU] += predicate_s
        if key < high:  # type: ignore[operator]
            return (parent_value, om.get_attr(child, project))
        return None

    return child_row


class NavigationChildToParent(TreeJoinOperator):
    """**NOJOIN** — child-to-parent pure navigation.

    Uses the index of the *largest* collection, but may test the parent
    predicate once per child (up to 1,000 times per parent); "the join
    is hidden within the navigation pattern".
    """

    def _open(self) -> None:
        self._children = self.q.selected_children()

    def _next(self, n: int) -> list:
        q, db = self.q, self.db
        buckets = db.clock.buckets
        predicate_s = db.params.predicate_us / US_PER_S
        child_ref, child_project = q.child_ref, q.child_project
        key_name, high, project = q.parent_key, q.parent_high, q.parent_project

        def row(om, child):
            parent_rid = om.get_attr(child, child_ref)
            if parent_rid is not None:
                with om.borrow(parent_rid) as parent:
                    key = om.get_attr(parent, key_name)
                    buckets[_CPU] += predicate_s
                    if key < high:  # type: ignore[operator]
                        return (
                            om.get_attr(parent, project),
                            om.get_attr(child, child_project),
                        )
            return None

        out: list = []
        db.manager.fetch(self._children, row, out, n, None, self.ctx.result_s())
        return out


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
        insert, project = self._table.insert, q.parent_project
        om.fetch(
            q.selected_parents(),
            lambda om, parent: insert(parent.rid, om.get_attr(parent, project)),
            [],
        )
        self._children = q.selected_children()

    def _next(self, n: int) -> list:
        q = self.q
        probe, child_ref, project = self._table.probe, q.child_ref, q.child_project

        def row(om, child):
            info = probe(om.get_attr(child, child_ref))
            if info is not None:
                return (info, om.get_attr(child, project))
            return None

        out: list = []
        self.db.manager.fetch(
            self._children, row, out, n, None, self.ctx.result_s()
        )
        return out


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
        insert, child_ref, project = self._table.insert, q.child_ref, q.child_project
        om.fetch(
            q.selected_children(),
            lambda om, child: insert(
                om.get_attr(child, child_ref), om.get_attr(child, project)
            ),
            [],
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
                buckets[_RESULT] += row_s
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
    ``peak_rows``; the parent side is index entries (rid pairs to the
    sort's memory model) — bookkeeping, like a rid table, and not
    counted.
    """

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        child_ref, project = q.child_ref, q.child_project

        def pair(om, child):
            parent_rid = om.get_attr(child, child_ref)
            if parent_rid is not None:
                return (parent_rid, om.get_attr(child, project))
            return None

        child_pairs: list = []
        om.fetch(q.selected_children(), pair, child_pairs)
        self._child_pairs = sort_charged(
            child_pairs, db.clock, db.params, key=lambda p: p[0],
            bytes_per_item=RID_PAIR_BYTES,
        )
        self.ctx.note_buffered(len(self._child_pairs))

        self._parent_rids = sort_charged(
            list(q.selected_parents()), db.clock, db.params,
            bytes_per_item=RID_PAIR_BYTES,
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
                buckets[_CPU] += compare_s
                i += 1
            if i == end:
                return
            if pairs[i][0] != parent_rid:
                continue
            with om.borrow(parent_rid) as parent:
                parent_value = om.get_attr(parent, q.parent_project)
            while i < end and pairs[i][0] == parent_rid:
                buckets[_CPU] += compare_s
                buckets[_RESULT] += row_s
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

    #: Probe bytes spilled so far, and whether their pages are charged.
    _probe_bytes = 0
    _probe_charged = False

    def _open(self) -> None:
        db, om, q = self.db, self.db.manager, self.q
        project = q.parent_project
        parents: list = []
        om.fetch(
            q.selected_parents(),
            lambda om, parent: (parent.rid, om.get_attr(parent, project)),
            parents,
        )
        table_bytes = phj_table_bytes(len(parents))
        spilled = spilled_bytes(table_bytes, db.params.memory.query_memory_bytes)
        self._spill_fraction = spilled / table_bytes if spilled else 0.0

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

    def _charge_spill_pages(self, pages: int) -> None:
        db = self.db
        for __ in range(pages):
            db.clock.charge_ms(_IO, db.params.page_write_ms)
            db.clock.charge_ms(_IO, db.params.page_read_ms)
            db.counters.disk_writes += 1
            db.counters.disk_reads += 1

    def _next(self, n: int) -> list:
        q = self.q
        probe, child_ref, project = self._table.probe, q.child_ref, q.child_project
        probes = 0

        def row(om, child):
            nonlocal probes
            parent_rid = om.get_attr(child, child_ref)
            probes += 1
            info = probe(parent_rid)
            if info is not None:
                return (info, om.get_attr(child, project))
            return None

        out: list = []
        room = n
        try:
            room = self.db.manager.fetch(
                self._children, row, out, n, None, self.ctx.result_s()
            )
        finally:
            self._probe_bytes += probes * int(
                RID_PAIR_BYTES * self._spill_fraction
            )
            if room:  # the probe side ended: exhausted, or raised
                self._charge_probe_spill()
        return out

    def _charge_probe_spill(self) -> None:
        """Exactly once: when the probe side ends, or at ``close()``
        after an early exit, for the probes made so far."""
        if not self._probe_charged:
            self._probe_charged = True
            self._charge_spill_pages(pages_for_bytes(self._probe_bytes))

    def _close(self) -> None:
        self._charge_probe_spill()


#: The one registry: operator classes by the paper's algorithm names.
JOIN_OPERATORS: dict[str, type[TreeJoinOperator]] = {
    "NL": NavigationParentToChild,
    "NOJOIN": NavigationChildToParent,
    "PHJ": HashParentsJoin,
    "CHJ": HashChildrenJoin,
    "SMJ": SortMergeJoin,
    "PHJ-HYBRID": HybridHashParentsJoin,
}


#: The six algorithm names, in the harness's op order.
ALGORITHMS: tuple[str, ...] = tuple(JOIN_OPERATORS)
