"""Row-transforming operators: map, limit, distinct, sort, aggregates.

``Sort`` is the one *blocking* operator here: it drains its input into a
buffer (registered against the pipeline's live-row high-water mark),
charges the same per-term ``n log n`` + spill prices the materializing
engine charged, and then streams the ordered rows out.  Everything else
is pipelined — in particular :class:`Limit` simply stops pulling, which
is what makes ``limit`` / first-row queries early-exit for free.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.exec.operators.base import (
    DEFAULT_BATCH_SIZE,
    SKIP,
    Operator,
    PipelineContext,
)
from repro.exec.sorter import sort_charged
from repro.index.btree import BTreeIndex
from repro.simtime import Bucket
from repro.units import US_PER_S

_CPU = Bucket.CPU


class Map(Operator):
    """Apply a function to every row (projection, column flip)."""

    def __init__(self, ctx: PipelineContext, source: Operator, fn: Callable):
        super().__init__(ctx)
        self.source = source
        self.fn = fn

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _next(self, n: int) -> list:
        return [self.fn(row) for row in self.source.next_batch(n)]


class Limit(Operator):
    """Emit at most ``limit`` rows, then stop pulling from below.

    The early exit is structural: once the quota is met this operator
    reports end-of-stream, the cursor closes the tree, and whatever the
    input would have scanned next is simply never charged.
    """

    def __init__(self, ctx: PipelineContext, source: Operator, limit: int):
        super().__init__(ctx)
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self.source = source
        self.limit = limit
        self._remaining = limit
        self.label = f"Limit({limit})"

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _next(self, n: int) -> list:
        if self._remaining <= 0:
            return []
        batch = self.source.next_batch(min(n, self._remaining))
        batch = batch[: self._remaining]
        self._remaining -= len(batch)
        return batch


class Distinct(Operator):
    """Drop duplicate rows, keeping first-seen order (the semantics of
    the legacy ``dict.fromkeys`` pass, charged identically: free).

    Pulls ``asked`` rows at a time from its source -- what the pull
    under way asked of *it*, which a ``Limit`` above has clamped -- and
    what a source batch holds beyond that stays in the suspended loop
    for the next pull."""

    def __init__(self, ctx: PipelineContext, source: Operator):
        super().__init__(ctx)
        self.source = source

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _rows(self) -> Iterator:
        seen: set = set()
        while batch := self.source.next_batch(self.asked):
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    yield row


class Sort(Operator):
    """Order-by over ``(key_tuple, row)`` pairs — blocking.

    Input rows are pairs of a sort-key tuple and the output row.  On the
    first pull the input is drained (the buffer counts against
    ``peak_rows``), then each order-by term is applied from the last to
    the first with a stable charged sort (``reverse`` for a descending
    term, so the order an earlier pass set among ties survives) — the
    order the coordinator's central sort gives a sharded answer.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        source: Operator,
        order_by: tuple[tuple[str, bool], ...],
    ):
        super().__init__(ctx)
        self.source = source
        self.order_by = order_by
        terms = [
            attr + " desc" if descending else attr
            for attr, descending in order_by
        ]
        self.label = f"Sort({', '.join(terms)})"
        self._buffer: list = []
        self._pos = 0
        self._sorted = False

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _drain_and_sort(self) -> None:
        db = self.ctx.db
        keyed: list = []
        while True:
            batch = self.source.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                break
            keyed.extend(batch)
            self.ctx.note_buffered(len(batch))
        rows = keyed
        for position in range(len(self.order_by) - 1, -1, -1):
            __, descending = self.order_by[position]
            rows = sort_charged(
                rows,
                db.clock,
                db.params,
                key=lambda item, p=position: item[0][p],
                reverse=descending,
            )
        self._buffer = [row for __, row in rows]
        self._sorted = True

    def _next(self, n: int) -> list:
        if not self._sorted:
            self._drain_and_sort()
        batch = self._buffer[self._pos : self._pos + n]
        self._pos += len(batch)
        self.ctx.note_released(len(batch))
        return batch

    def _close(self) -> None:
        self.ctx.note_released(len(self._buffer) - self._pos)
        self._buffer = []
        self._pos = 0


def finish_aggregate(
    func: str, count: int, total: float, lo: object | None, hi: object | None
) -> object:
    """Turn accumulated state into the aggregate's answer."""
    if func == "count":
        return count
    if func == "sum":
        return total
    if func == "avg":
        return total / count if count else None
    if func == "min":
        return lo
    return hi


class IndexOnlyAggregate(Operator):
    """count/sum/avg/min/max answered from index entries alone.

    A leaf operator: the whole answer comes from one range scan over
    ``(key, rid)`` entries, one comparison charged per entry, no object
    ever fetched.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        index: BTreeIndex,
        low: object | None,
        high: object | None,
        include_low: bool,
        include_high: bool,
        func: str,
    ):
        super().__init__(ctx)
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.func = func
        self._done = False

    def _next(self, n: int) -> list:
        if self._done:
            return []
        self._done = True
        db = self.ctx.db
        buckets = db.clock.buckets
        compare_s = db.params.compare_us / US_PER_S
        count = 0
        total = 0.0
        lo: object | None = None
        hi: object | None = None
        for key, __ in self.index.range_scan(
            self.low, self.high, self.include_low, self.include_high
        ):
            buckets[_CPU] += compare_s
            count += 1
            if self.func != "count":
                total += key  # type: ignore[operator]
                lo = key if lo is None or key < lo else lo  # type: ignore[operator]
                hi = key if hi is None or key > hi else hi  # type: ignore[operator]
        return [finish_aggregate(self.func, count, total, lo, hi)]


class FetchingAggregate(Operator):
    """Aggregate that must look at the objects.

    Pulls rids from its source, borrows each object through
    ``ObjectManager.fetch``, applies the accept function (residual
    predicates, exists filters; ``None`` when every object the source
    emits counts), and accumulates.
    Emits exactly one row.  No result-append charge — the legacy engine
    returned the scalar without building a result collection, and so
    do we.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        source: Operator,
        accept_fn: Callable | None,
        func: str,
        attr: str | None,
    ):
        super().__init__(ctx)
        self.source = source
        self.accept_fn = accept_fn
        self.func = func
        self.attr = attr
        self._done = False

    def children(self) -> tuple[Operator, ...]:
        return (self.source,)

    def _next(self, n: int) -> list:
        if self._done:
            return []
        self._done = True
        fetch = self.ctx.db.manager.fetch
        row_fn, skip = self._row_fn()
        fold = self.func != "count"
        count = 0
        total = 0.0
        lo: object | None = None
        hi: object | None = None
        values: list = []
        while True:
            batch = self.source.next_batch(n)
            if not batch:
                break
            fetch(batch, row_fn, values, -1, skip)
            count += len(values)
            if fold:
                for value in values:
                    total += value  # type: ignore[operator]
                    lo = value if lo is None or value < lo else lo  # type: ignore[operator]
                    hi = value if hi is None or value > hi else hi  # type: ignore[operator]
            values.clear()
        return [finish_aggregate(self.func, count, total, lo, hi)]

    def _row_fn(self) -> tuple[Callable, object]:
        """The row function ``ObjectManager.fetch`` applies, and the row
        it drops: an accepted object's attribute value (or ``True``
        under ``count``), :data:`SKIP` for a rejected one.  An accept
        function answers a bool, so under ``count`` it is the row
        function itself."""
        accept_fn, attr = self.accept_fn, self.attr
        if self.func == "count":
            return (_counted if accept_fn is None else accept_fn), False
        if accept_fn is None:
            return lambda om, handle: om.get_attr(handle, attr), SKIP
        return (
            lambda om, handle: om.get_attr(handle, attr)
            if accept_fn(om, handle) else SKIP
        ), SKIP


def _counted(om: object, handle: object) -> bool:
    """Every object the source emits counts."""
    return True
