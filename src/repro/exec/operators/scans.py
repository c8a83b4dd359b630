"""Scan-side operators and the selection scans built from them — the
pseudo-code of the paper's Figure 8.

Left algorithm (standard scan)::

    open scan on Patients
    for each Rid r returned by the scan
        get Handle h
        if get_att(h, num) > k
            add get_att(h, age) to the result
        unreference h

Right algorithm (sorted index scan)::

    open index scan on (Patients, num > k)
    for each Rid r returned by the index scan
        add r to Table T
    sort T on Rids
    for each r in T
        get Handle h
        add get_att(h, age) to the result
        unreference h

The unsorted variant (``sorted_rids=False``) fetches objects in key
order, which on an unclustered key means random page accesses — the
regime where Figure 6 shows the index reading *more* pages than a full
scan beyond a few percent selectivity.

As operators: a rid source (:class:`CollectionScan` or
:class:`IndexScan`) emits record ids; a :class:`Fetch` above it borrows
one handle per rid, applies a row function, and emits the surviving
rows.  The OQL engine builds these trees with compiled row functions;
the figures reach them through a forced ``scan`` / ``index`` /
``sorted-index`` plan.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.exec.operators.base import SKIP, Operator, PipelineContext
from repro.exec.sorter import sort_charged
from repro.index.btree import BTreeIndex
from repro.objects.database import PersistentCollection
from repro.storage.rid import Rid


class CollectionScan(Operator):
    """Emit every rid of a collection, in physical (creation) order."""

    def __init__(self, ctx: PipelineContext, collection: PersistentCollection):
        super().__init__(ctx)
        self.collection = collection
        self.label = f"CollectionScan({collection.name})"

    def _rows(self) -> Iterator[Rid]:
        return self.collection.iter_rids()


class IndexScan(Operator):
    """Emit the rids of a B+-tree range scan.

    The range scan runs (and charges its leaf I/O) in ``_open`` — the
    index produces its matches up front, exactly as the materializing
    code did.  With ``sorted_rids`` the rid table is additionally
    sorted by physical address (Figure 8, right).  The rid table is
    bookkeeping, not rows; its memory is modeled by the sort's spill
    charges, so it is not counted against ``peak_rows``.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        index: BTreeIndex,
        low: object | None,
        high: object | None,
        include_low: bool = True,
        include_high: bool = True,
        sorted_rids: bool = False,
    ):
        super().__init__(ctx)
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.sorted_rids = sorted_rids

    def _open(self) -> None:
        db = self.ctx.db
        self._rids = list(
            self.index.rid_scan(
                self.low, self.high, self.include_low, self.include_high
            )
        )
        if self.sorted_rids:
            self._rids = sort_charged(self._rids, db.clock, db.params)

    def _rows(self) -> Iterator[Rid]:
        return iter(self._rids)


class Fetch(Operator):
    """Borrow one handle per input rid and apply a row function.

    ``row_fn(om, handle)`` returns the output row, or :data:`SKIP` to
    drop the object (a failed predicate).  Each surviving row is charged
    the transactional result-append price as it is emitted.  The handle
    brackets run in ``ObjectManager.fetch`` and close before the row
    leaves the operator — nothing is held across a batch boundary.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        source: Operator,
        row_fn: Callable,
    ):
        super().__init__(ctx)
        self.source = source
        self.row_fn = row_fn
        #: What is left of the source's last batch.
        self._rids = iter(())

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _next(self, n: int) -> list:
        fetch, row_fn = self.ctx.db.manager.fetch, self.row_fn
        row_s = self.ctx.result_s()
        out: list = []
        room = n
        while room:
            room = fetch(self._rids, row_fn, out, room, SKIP, row_s)
            if room:
                batch = self.source.next_batch(n)
                if not batch:
                    break
                self._rids = iter(batch)
        return out
