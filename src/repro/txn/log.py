"""Write-ahead log.

The log serves two purposes.  First, as in the original cost model, it
charges the *price* of logging — every append costs CPU and every flush
costs page writes — which is what the paper's loading experiments
(Section 3.2) measure.  Second, since the crash-recovery subsystem
landed, records carry *physical content*: page-level before/after
images with LSNs, chained per transaction through ``prev_lsn``, plus
``commit``/``abort`` markers and ``checkpoint`` records holding the
active-transaction and dirty-page tables.  :mod:`repro.recovery` replays
this content in ARIES-style analysis/redo/undo passes after a simulated
crash (see ``docs/recovery.md``).

Durability is modeled honestly: only the records whose serialized bytes
fit in the log pages actually flushed are durable (``durable_lsn``); a
crash truncates the log to that boundary.  A flush interrupted after *k*
of its *n* pages (the ``commit-flush`` crash point) leaves a durable
record *prefix* — exactly the torn multi-page commit the recovery
protocol must survive.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.page import PageImage
from repro.units import PAGE_SIZE, pages_for_bytes

_LOG = Bucket.LOG

#: Serialized sizes (bytes) of the fixed parts of each record kind:
#: a common header (lsn, prev_lsn, txn id, kind, length) plus, for
#: physical records, a page key and two image length fields.
BEGIN_RECORD_BYTES = 24
COMMIT_RECORD_BYTES = 16
ABORT_RECORD_BYTES = 16
#: Two-phase-commit vote record: a commit-sized marker plus the
#: coordinator's transaction id (see ``repro.dist.twopc``).
PREPARE_RECORD_BYTES = 24
UPDATE_HEADER_BYTES = 32
CHECKPOINT_HEADER_BYTES = 32
CHECKPOINT_ATT_ENTRY_BYTES = 16
CHECKPOINT_DPT_ENTRY_BYTES = 24

#: Record kinds that carry page images and participate in redo.
PHYSICAL_KINDS = frozenset({"create", "update", "clr"})

#: Physical kinds that restart-undo may need to revert ("clr" records
#: are compensations and are never themselves undone).
UNDOABLE_KINDS = frozenset({"create", "update"})


class LogRecord(NamedTuple):
    """One logged operation.

    The three leading fields are the original cost-model record; the
    defaulted fields carry the physical content recovery needs.  ``nbytes``
    remains the authoritative serialized size used for log-page
    accounting, so cost behavior is unchanged for legacy callers.

    Immutable, because a replica's log holds the very records its
    primary appended (:meth:`WriteAheadLog.append_shipped`).
    """

    txn_id: int
    kind: str      # "begin" | "create" | "update" | "clr" | "delete"
    #              # | "prepare" | "commit" | "abort" | "checkpoint"
    nbytes: int
    #: Log sequence number (1-based, assigned at append; 0 = unassigned,
    #: e.g. records from legacy cost-only callers predating recovery).
    lsn: int = 0
    #: Previous record of the same transaction (0 = none) — the undo chain.
    prev_lsn: int = 0
    #: ``(file_id, page_no)`` of the page a physical record touched.
    page_key: tuple[int, int] | None = None
    #: Page image before the change (physical records only).
    before: PageImage | None = None
    #: Page image after the change (physical records only).
    after: PageImage | None = None
    #: For ``clr`` records: the lsn of the update this record compensates.
    undoes_lsn: int = 0
    #: For ``checkpoint`` records: ``((txn_id, last_lsn), ...)``.
    att: tuple[tuple[int, int], ...] = ()
    #: For ``checkpoint`` records: ``(((file_id, page_no), rec_lsn), ...)``.
    dpt: tuple[tuple[tuple[int, int], int], ...] = ()
    #: For ``commit`` records: the monotonic commit timestamp assigned by
    #: the transaction manager (0 = pre-MVCC record / non-commit kind).
    #: Restart reads these to restore the commit-timestamp high-water.
    commit_ts: int = 0


#: ``LogRecord`` from a tuple of all its fields, in order, with no
#: Python-level call (the named tuple's own ``__new__`` is one).
_log_record = partial(tuple.__new__, LogRecord)


def image_delta_bytes(before: PageImage, after: PageImage) -> int:
    """Serialized payload of a physical record: the bytes of every slot
    that differs between the two images (both versions are logged)."""

    def _slot_bytes(entry) -> int:
        if isinstance(entry, bytes):
            return len(entry)
        if entry is None:
            return 0
        return 8  # a forwarding rid

    total = 0
    width = max(len(before.slots), len(after.slots))
    for slot in range(width):
        b = before.slots[slot] if slot < len(before.slots) else None
        a = after.slots[slot] if slot < len(after.slots) else None
        if b != a:
            total += _slot_bytes(b) + _slot_bytes(a)
    return total


class WriteAheadLog:
    """Accumulates log records and charges their I/O at flush time.

    ``records`` holds every appended record in LSN order; the suffix
    past ``durable_lsn`` exists only in the simulated log buffer and is
    lost by :meth:`crash`.
    """

    def __init__(self, clock: SimClock, params: CostParams):
        self.clock = clock
        self.params = params
        self.records: list[LogRecord] = []
        self._unflushed: list[LogRecord] = []
        self._unflushed_bytes = 0
        self.flushed_pages = 0
        self.next_lsn = 1
        #: Highest LSN guaranteed to be on disk (0 = nothing flushed).
        self.durable_lsn = 0
        #: Flushes forced by the WAL rule (dirty page written first).
        self.forced_flushes = 0
        #: Dirty-page table: page key -> rec_lsn of the *first* log
        #: record that dirtied the page since it was last written.
        self.dirty_pages: dict[tuple[int, int], int] = {}
        #: Optional :class:`~repro.recovery.CrashInjector` hook.
        self.injector = None
        #: Optional replication hook, fired at the end of every flush
        #: that advanced the durable boundary: ``listener(old_durable,
        #: new_durable)``.  A synchronous shipper forwards the newly
        #: durable records to the replica *inside* the flush, so the
        #: caller's commit cannot return (and no client can be acked)
        #: before the replica holds the records.
        self.ship_listener = None

    # -- appending ------------------------------------------------------

    def append(
        self,
        txn_id: int,
        kind: str,
        nbytes: int,
        *,
        prev_lsn: int = 0,
        page_key: tuple[int, int] | None = None,
        before: PageImage | None = None,
        after: PageImage | None = None,
        undoes_lsn: int = 0,
        att: tuple[tuple[int, int], ...] = (),
        dpt: tuple[tuple[tuple[int, int], int], ...] = (),
        commit_ts: int = 0,
    ) -> LogRecord:
        """Log one operation (CPU charge; bytes await the next flush)."""
        if nbytes < 0:
            raise ValueError(f"negative log payload: {nbytes}")
        record = _log_record((
            txn_id, kind, nbytes, self.next_lsn, prev_lsn, page_key,
            before, after, undoes_lsn, att, dpt, commit_ts,
        ))
        self.next_lsn += 1
        self.records.append(record)
        self._unflushed.append(record)
        self._unflushed_bytes += nbytes
        self.clock.charge_us(_LOG, self.params.log_append_us)
        if self.injector is not None:
            self.injector.on_append(record)
        return record

    def stamp(self, page, record: LogRecord) -> None:
        """Mark ``page`` as last changed by ``record``: sets its
        ``page_lsn`` and registers it in the dirty-page table."""
        page.page_lsn = record.lsn
        if record.page_key is not None:
            self.dirty_pages.setdefault(record.page_key, record.lsn)

    def note_page_written(self, page_key: tuple[int, int]) -> None:
        """A dirty page reached disk; drop it from the dirty-page table."""
        self.dirty_pages.pop(page_key, None)

    # -- flushing -------------------------------------------------------

    def flush(self) -> int:
        """Force the log to disk; returns pages written.

        With no pending records this is free (no I/O is charged).  A
        full flush seals the tail to a page boundary, so the page count
        is exactly ``pages_for_bytes(_unflushed_bytes)`` as it always was.
        A ``commit-flush`` crash injector limits how many pages reach
        disk: the durable boundary then advances only past the records
        that fit entirely within those pages, and the torn tail page is
        rewritten by the next flush.
        """
        pages_needed = pages = pages_for_bytes(self._unflushed_bytes, PAGE_SIZE)
        before_durable = self.durable_lsn
        crash_detail = None
        if self.injector is not None:
            injector_budget = self.injector.on_flush(pages_needed)
            if injector_budget is not None:
                pages = min(pages, injector_budget)
                crash_detail = f"{pages}/{pages_needed} pages written"
        for __ in range(pages):
            self.clock.charge_ms(_LOG, self.params.page_write_ms)
        self.flushed_pages += pages
        if pages >= pages_needed:
            if self._unflushed:
                self.durable_lsn = self._unflushed[-1].lsn
            self._unflushed.clear()
            self._unflushed_bytes = 0
        else:
            budget_bytes = pages * PAGE_SIZE
            while self._unflushed and self._unflushed[0].nbytes <= budget_bytes:
                record = self._unflushed.pop(0)
                budget_bytes -= record.nbytes
                self._unflushed_bytes -= record.nbytes
                self.durable_lsn = record.lsn
        if crash_detail is not None:
            self.injector.fire(crash_detail)
        if self.ship_listener is not None and self.durable_lsn > before_durable:
            self.ship_listener(before_durable, self.durable_lsn)
        return pages

    # -- replication shipping -------------------------------------------

    def append_shipped(self, record: LogRecord) -> LogRecord:
        """Append a record shipped from a replication primary,
        *preserving its LSN*: the replica's log must stay an identical
        prefix of the primary's so ``prev_lsn`` chains, checkpoints and
        restart analysis mean the same thing on both.  Ships arrive in
        order; a gap means the shipper lost its place."""
        if record.lsn != self.next_lsn:
            raise ValueError(
                f"ship sequence gap: expected lsn {self.next_lsn}, "
                f"got {record.lsn}"
            )
        self.next_lsn = record.lsn + 1
        self.records.append(record)
        self._unflushed.append(record)
        self._unflushed_bytes += record.nbytes
        self.clock.charge_us(_LOG, self.params.log_append_us)
        if self.injector is not None:
            self.injector.on_append(record)
        return record

    # -- crash semantics ------------------------------------------------

    def durable_records(self) -> list[LogRecord]:
        """The records that would survive a crash right now."""
        return [r for r in self.records if 0 < r.lsn <= self.durable_lsn]

    def crash(self) -> None:
        """Lose the log buffer: truncate to the durable boundary."""
        self.records = self.durable_records()
        self._unflushed.clear()
        self._unflushed_bytes = 0
        self.dirty_pages.clear()
        self.injector = None
        self.ship_listener = None
