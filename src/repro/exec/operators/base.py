"""The operator protocol: pull-based, batched (Volcano-style) execution.

Every executor in this package is an :class:`Operator` with the
``open() / next_batch(n) / close()`` life cycle.  A query is a tree of
operators; the consumer pulls batches of up to ``n`` rows from the root
through a :class:`Cursor`, and each operator pulls from its inputs in
turn.  Nothing is materialized except what an algorithm genuinely has to
buffer (a sort's input, a hash-join's build side), so ``limit``/first-row
consumers can stop early and pay only for what they pulled.

Cost discipline (what keeps streaming equivalent to the old
materializing executors):

* **Charge order is preserved.**  The clock only sums, but the *page
  access order* feeds the LRU caches, so operators touch pages, handles
  and index leaves in exactly the order the materializing code did.
  Blocking prefixes (rid materialize + physical sort, hash builds) run
  in ``open()`` — which is also what makes time-to-first-row honest.
* **No handle crosses a batch boundary.**  Every
  :meth:`~repro.objects.manager.ObjectManager.borrow` bracket completes
  within the production of a single row (or within ``open()``), so an
  early ``close()`` can never leak a handle.  A row generator therefore
  never ``yield``s inside a bracket (simlint ESCAPE checks it): it
  builds and charges the row inside, and yields after.
* **Result rows are charged as they are emitted**
  (:meth:`PipelineContext.result_s`), so a drained pipeline charges
  exactly what the list builders charged, and an abandoned one charges
  less.

Memory accounting: :class:`PipelineStats.peak_rows` is the high-water
mark of *rows* alive in the pipeline — completed batches in flight plus
explicitly registered row buffers (a sort's input, SMJ's child pairs).
Rid tables, hash tables and join-side index entries are not rows; their
memory pressure is already modeled by the sort/spill/swap charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from types import GeneratorType
from typing import Iterator

from repro.objects.database import Database
from repro.simtime import Bucket
from repro.units import US_PER_S

#: Default rows per ``next_batch`` pull.  See docs/pipeline.md for how
#: to choose: bigger batches amortize per-batch overhead (scheduler
#: yields, Python call frames), smaller ones cut time-to-first-row and
#: peak live rows.
DEFAULT_BATCH_SIZE = 256

#: Sentinel a row function returns to drop the current input.
SKIP = object()

#: What an operator without a row generator iterates: nothing.
_NO_ROWS: Iterator = iter(())


@dataclass
class PipelineStats:
    """Per-query pipeline instrumentation."""

    #: Simulated seconds from cursor open to the first emitted row
    #: (``None`` until a row is produced — and forever, for empty
    #: results).
    first_row_s: float | None = None
    #: High-water mark of live rows buffered across the operator tree.
    peak_rows: int = 0
    #: Rows emitted by the root so far.
    rows: int = 0
    #: Batches emitted by the root so far.
    batches: int = 0

    @property
    def first_row_ms(self) -> float:
        return 0.0 if self.first_row_s is None else self.first_row_s * 1e3


class PipelineContext:
    """Shared state of one operator tree: the database and the stats."""

    def __init__(self, db: Database):
        self.db = db
        self.stats = PipelineStats()
        self._live_rows = 0
        self._open_s: float | None = None

    # -- live-row accounting -------------------------------------------

    def note_buffered(self, n: int) -> None:
        """``n`` rows became live (an emitted batch, a sort buffer)."""
        self._live_rows += n
        if self._live_rows > self.stats.peak_rows:
            self.stats.peak_rows = self._live_rows

    def note_released(self, n: int) -> None:
        """``n`` previously counted rows were consumed or dropped."""
        self._live_rows -= n

    @property
    def live_rows(self) -> int:
        return self._live_rows

    # -- charging -------------------------------------------------------

    def result_s(self, transactional: bool = True) -> float:
        """Simulated seconds one emitted result row costs under the
        database's current params.  The paper measures result building
        explicitly: constructing a collection of 1.8 million integers
        under standard transaction mode took ~1100 seconds (Section 4.2)
        -- about 0.6 ms per element, because the result is built "as if
        it could become persistent"; ``transactional=False`` is the cheap
        transient price.  An operator asks when its row generator starts
        (or once per ``_next``) and adds the price to
        ``clock.buckets[Bucket.RESULT]`` row by row; it is never kept
        across statements, because a sweep swaps ``db.params`` between
        runs."""
        params = self.db.params
        us = (
            params.result_append_txn_us
            if transactional
            else params.result_append_us
        )
        return us / US_PER_S

    def charge_result(self, transactional: bool = True) -> None:
        """Charge one emitted result row."""
        self.db.clock.buckets[Bucket.RESULT] += self.result_s(transactional)

    # -- first-row bookkeeping (driven by the Cursor) -------------------

    def mark_open(self) -> None:
        if self._open_s is None:
            self._open_s = self.db.clock.elapsed_s

    def mark_rows(self, n: int) -> None:
        if n and self.stats.first_row_s is None:
            opened = self._open_s if self._open_s is not None else 0.0
            self.stats.first_row_s = self.db.clock.elapsed_s - opened
        self.stats.rows += n
        self.stats.batches += 1


class Operator:
    """One node of a pull-based operator tree.

    A subclass states how it produces rows in one of two ways: a
    **row generator** (``_rows``: the paper's straight-line loop with a
    ``yield`` where it says "add to the result"), which the default
    ``_next`` slices ``n`` rows at a time, or -- for an operator that is
    batch-native (maps or clamps its source's batch, emits one row) --
    its own ``_next``.  Blocking prefixes go in ``_open``, never before
    the first ``yield``: ``open()`` is where they are charged.  The
    public methods add idempotent state handling and live-row
    accounting.  ``next_batch(n)`` returns at most ``n`` rows; an empty
    list means the operator is exhausted (operators keep pulling
    internally until they have at least one row or their inputs are
    dry, so a non-empty pipeline never yields a spurious ``[]``).
    """

    def __init__(self, ctx: PipelineContext):
        self.ctx = ctx
        #: What ``explain`` prints for this node; more than one line only
        #: for input it reads itself, not through a child (an index
        #: range).  Whoever builds a node with more to say sets it.
        self.label = type(self).__name__
        #: The ``n`` of the pull under way.  A generator that pulls from
        #: a source asks it for this many: a ``Limit`` above clamps
        #: ``n``, and the source must not read past it.
        self.asked = 0
        self._iter: Iterator = _NO_ROWS  # _rows(), from open() to close()
        self._emitted = 0       # rows of our last batch, still live
        self._opened = False
        self._closed = False

    # -- protocol -------------------------------------------------------

    def open(self) -> None:
        if self._opened:
            return
        self._opened = True
        for child in self.children():
            child.open()
        self._open()
        self._iter = self._rows()

    def next_batch(self, n: int) -> list:
        if not self._opened or self._closed:
            raise RuntimeError(
                f"{type(self).__name__}.next_batch outside open/close"
            )
        # The consumer asking for more is done with our previous batch.
        self.ctx.note_released(self._emitted)
        self._emitted = 0
        self.asked = n
        batch = self._next(n)
        self._emitted = len(batch)
        self.ctx.note_buffered(self._emitted)
        return batch

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.ctx.note_released(self._emitted)
        self._emitted = 0
        rows, self._iter = self._iter, _NO_ROWS
        try:
            # A suspended generator finishes first (its ``finally``
            # clauses run), then the operator's own clean-up.
            if isinstance(rows, GeneratorType):
                rows.close()
            self._close()
        finally:
            for child in self.children():
                child.close()

    # -- hooks ----------------------------------------------------------

    def children(self) -> tuple["Operator", ...]:
        return ()

    def _open(self) -> None:
        pass

    def _rows(self) -> Iterator:
        """The rows, one at a time; called once, at the end of
        ``open()``.  Never ``yield`` inside a ``borrow`` bracket."""
        return _NO_ROWS

    def _next(self, n: int) -> list:
        return list(islice(self._iter, n))

    def _close(self) -> None:
        pass

    # -- introspection --------------------------------------------------

    @property
    def depth(self) -> int:
        """Height of this operator tree (1 for a leaf)."""
        return 1 + max((c.depth for c in self.children()), default=0)

    def explain(self) -> list[str]:
        """This tree as text: each node's label, children indented two
        spaces under their parent."""
        lines = self.label.split("\n")
        for child in self.children():
            lines += ["  " + line for line in child.explain()]
        return lines


class Cursor:
    """Consumer facade over a root operator.

    Iterate it for rows, or call :meth:`batches` for batch-at-a-time
    consumption (the service layer yields the scheduler baton between
    batches).  Closing is automatic — at exhaustion, on abandonment of
    the generator, or via the context manager — and idempotent.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        root: Operator,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.ctx = ctx
        self.root = root
        self.batch_size = batch_size
        #: Optional hook fired exactly once when the cursor closes
        #: (exhaustion, abandonment, or explicit close) — consumers
        #: fold the final stats into their metrics here.
        self.on_close = None
        self._on_close_fired = False

    @property
    def stats(self) -> PipelineStats:
        return self.ctx.stats

    def batches(self):
        """Yield non-empty batches until the pipeline is exhausted."""
        self.ctx.mark_open()
        self.root.open()
        try:
            while True:
                batch = self.root.next_batch(self.batch_size)
                if not batch:
                    break
                self.ctx.mark_rows(len(batch))
                yield batch
        finally:
            self.close()

    def __iter__(self):
        for batch in self.batches():
            yield from batch

    def drain(self) -> list:
        """Pull everything; returns the full row list.  Runs inside
        ``with self`` so an abort mid-drain (cancellation, budget,
        deadlock) still closes the tree and fires ``on_close``."""
        rows: list = []
        with self:
            for batch in self.batches():
                rows.extend(batch)
        return rows

    def close(self) -> None:
        self.root.close()
        if self.on_close is not None and not self._on_close_fired:
            self._on_close_fired = True
            self.on_close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
