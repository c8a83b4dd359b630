"""ARIES-lite restart: analysis, redo, undo.

The restart driver rebuilds a consistent database from the two things
that survive a crash — the durable page images and the durable log
prefix — following the shape of ARIES (Mohan et al., PAPERS.md):

* **analysis** scans forward from the last checkpoint rebuilding the
  active-transaction table (losers) and the dirty-page table (pages
  whose durable version may predate logged changes);
* **redo** repeats history from the oldest ``rec_lsn`` in the dirty-page
  table: every physical record — winner, loser or compensation — whose
  LSN is newer than the page's durable ``page_lsn`` is reapplied;
* **undo** rolls back the losers newest-first through their ``prev_lsn``
  chains in :meth:`~repro.txn.log.WriteAheadLog.undo`, the rollback a
  live abort runs, then logs an ``abort`` record per loser, so recovery
  itself is recoverable and idempotent.

Everything charges simulated time: log pages read at disk read latency
(``Bucket.LOG``), per-record scan/apply CPU (``log_apply_us``), data
pages read and written at normal I/O cost.  Recovery duration is a
first-class measurement — ``benchmarks/bench_recovery.py`` sweeps it
against checkpoint interval and update rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.simtime import Bucket
from repro.txn.log import (
    ABORT_RECORD_BYTES,
    COMMIT_RECORD_BYTES,
    CHECKPOINT_ATT_ENTRY_BYTES,
    CHECKPOINT_DPT_ENTRY_BYTES,
    CHECKPOINT_HEADER_BYTES,
    PHYSICAL_KINDS,
    LogRecord,
)
from repro.units import PAGE_SIZE, pages_for_bytes

_LOG = Bucket.LOG


@dataclass
class RecoveryReport:
    """What one restart did and how long (simulated) it took."""

    seconds: float = 0.0
    checkpoint_lsn: int = 0
    redo_start_lsn: int = 0
    log_records_scanned: int = 0
    log_pages_read: int = 0
    pages_redone: int = 0
    records_redone: int = 0
    txns_committed: int = 0
    txns_undone: int = 0
    records_undone: int = 0
    pages_flushed: int = 0
    losers: tuple[int, ...] = ()
    #: Transactions with a durable ``prepare`` vote but no durable
    #: outcome — 2PC branches whose fate the coordinator must decide.
    txns_in_doubt: tuple[int, ...] = ()
    txns_resolved_commit: int = 0
    txns_resolved_abort: int = 0


def take_checkpoint(db, txm, flush_pages: bool = True) -> LogRecord:
    """Write a checkpoint: flush the dirty-page table's pages (unless
    ``flush_pages=False``, the fuzzy variant), then log a ``checkpoint``
    record holding the active-transaction table and the remaining
    dirty-page table, and force it to disk.

    More frequent checkpoints cost more during normal operation (the
    page flushes) and buy shorter restarts — the trade the checkpoint
    sweep benchmark measures.
    """
    wal = txm.log
    if flush_pages:
        for key in sorted(wal.dirty_pages):
            db.disk.write_page(*key)
    if wal.injector is not None:
        wal.injector.on_checkpoint()
    att = tuple(
        sorted((t.txn_id, t.last_lsn) for t in txm.active_transactions() if t.logged)
    )
    dpt = tuple(sorted(wal.dirty_pages.items()))
    nbytes = (
        CHECKPOINT_HEADER_BYTES
        + CHECKPOINT_ATT_ENTRY_BYTES * len(att)
        + CHECKPOINT_DPT_ENTRY_BYTES * len(dpt)
    )
    record = wal.append(0, "checkpoint", nbytes, att=att, dpt=dpt)
    wal.flush()
    return record


def _recovery_page(disk, fetched: set, file_id: int, page_no: int):
    """Fetch a page for redo or undo, allocating anything missing (a
    crash may predate the durable allocation) and paying the read cost
    only on first touch per pass."""
    key = (file_id, page_no)
    while disk.num_pages(file_id) <= page_no:
        disk.allocate_page(file_id)
    if key in fetched:
        return disk.peek_page(file_id, page_no)
    fetched.add(key)
    return disk.read_page(file_id, page_no)


def redo_apply(db, records, fetched: set) -> list[tuple[int, int]]:
    """Repeat history: apply physical log records to the database's
    pages, oldest first, skipping anything a page already reflects
    (``page_lsn >= lsn``) — the redo pass of :func:`restart`, and the
    entry point a replication replica applies shipped records through
    *continuously* as they arrive instead of all at once after a crash.
    Charges per-record apply CPU and first-touch page reads (``fetched``
    holds the pages touched so far); returns the page key of each
    record applied, in order.  Idempotent: re-applying a shipped batch
    after a partial apply is a no-op."""
    clock = db.clock
    params = db.params
    disk = db.disk
    applied = []
    for record in records:
        if record.kind not in PHYSICAL_KINDS:
            continue
        clock.charge_us(_LOG, params.log_apply_us)
        page = _recovery_page(disk, fetched, *record.page_key)
        if page.page_lsn < record.lsn:
            page.restore(record.after)
            page.page_lsn = record.lsn
            page.dirty = True
            applied.append(record.page_key)
    return applied


def restart(db, txm, resolve_in_doubt=None) -> RecoveryReport:
    """Run analysis/redo/undo over the durable log and disk, leaving the
    database consistent: every durably-committed change applied, every
    loser rolled back and aborted, all recovered pages flushed.

    ``resolve_in_doubt`` handles two-phase-commit branches: a transaction
    with a durable ``prepare`` record but no outcome is *in doubt*, and
    the callback (local txn id -> ``"commit"`` | ``"abort"``) asks the
    coordinator's decision log for its fate.  Resolved commits get a
    commit record (their redo already repeated history); everything else
    — including all in-doubt branches when no resolver is given — is
    undone as a loser (presumed abort)."""
    clock = db.clock
    params = db.params
    wal = txm.log
    disk = db.disk
    report = RecoveryReport()
    start_s = clock.elapsed_s
    records = wal.durable_records()

    # --- analysis -----------------------------------------------------
    cp_idx = None
    for i in range(len(records) - 1, -1, -1):
        if records[i].kind == "checkpoint":
            cp_idx = i
            break
    att: dict[int, int] = {}
    dpt: dict[tuple[int, int], int] = {}
    scan_from = 0
    if cp_idx is not None:
        checkpoint = records[cp_idx]
        report.checkpoint_lsn = checkpoint.lsn
        att.update(checkpoint.att)
        dpt.update(checkpoint.dpt)
        scan_from = cp_idx
    prepared: set[int] = set()
    for record in records[scan_from:]:
        report.log_records_scanned += 1
        clock.charge_us(_LOG, params.log_apply_us)
        if record.kind == "begin":
            att[record.txn_id] = record.lsn
        elif record.kind in PHYSICAL_KINDS:
            att[record.txn_id] = record.lsn
            dpt.setdefault(record.page_key, record.lsn)
        elif record.kind == "prepare":
            att[record.txn_id] = record.lsn
            prepared.add(record.txn_id)
        elif record.kind == "commit":
            att.pop(record.txn_id, None)
            prepared.discard(record.txn_id)
        elif record.kind == "abort":
            att.pop(record.txn_id, None)
            prepared.discard(record.txn_id)
    report.txns_committed = sum(1 for r in records if r.kind == "commit")

    # In-doubt resolution: a prepared branch is not a loser until the
    # coordinator says so.
    in_doubt = sorted(t for t in att if t in prepared)
    report.txns_in_doubt = tuple(in_doubt)
    resolved_commit: dict[int, int] = {}  # txn id -> prev_lsn for commit
    for txn_id in in_doubt:
        decision = (
            "abort" if resolve_in_doubt is None else resolve_in_doubt(txn_id)
        )
        if decision == "commit":
            resolved_commit[txn_id] = att.pop(txn_id)
    report.txns_resolved_commit = len(resolved_commit)
    report.txns_resolved_abort = len(in_doubt) - len(resolved_commit)
    losers = sorted(att)
    report.losers = tuple(losers)

    # --- redo: repeat history from the oldest rec_lsn -----------------
    fetched: set[tuple[int, int]] = set()
    if dpt:
        report.redo_start_lsn = min(dpt.values())
        redone = redo_apply(db, [
            r for r in records
            if r.page_key in dpt and r.lsn >= dpt[r.page_key]
        ], fetched)
        report.records_redone = len(redone)
        report.pages_redone = len(set(redone))

    # --- undo the losers, newest change first -------------------------
    undone = list(wal.undo(att, partial(_recovery_page, disk, fetched)))
    report.records_undone = len(undone)
    for txn_id in losers:
        wal.append(txn_id, "abort", ABORT_RECORD_BYTES, prev_lsn=att[txn_id])
    report.txns_undone = len(losers)
    # In-doubt branches the coordinator decided to commit: redo already
    # repeated their history, so only the durable outcome is missing.
    for txn_id in sorted(resolved_commit):
        wal.append(
            txn_id,
            "commit",
            COMMIT_RECORD_BYTES,
            prev_lsn=resolved_commit[txn_id],
        )
    if losers or undone or resolved_commit:
        wal.flush()

    # --- charge the log read (pages covering everything we consulted) --
    needed_from = len(records)
    if report.log_records_scanned or report.records_redone or undone:
        candidates = []
        if cp_idx is not None:
            candidates.append(cp_idx)
        else:
            candidates.append(0)
        if report.redo_start_lsn:
            candidates.append(
                next(i for i, r in enumerate(records) if r.lsn >= report.redo_start_lsn)
            )
        if undone:
            oldest = undone[-1].lsn
            candidates.append(next(i for i, r in enumerate(records) if r.lsn == oldest))
        needed_from = min(candidates)
    log_bytes = sum(r.nbytes for r in records[needed_from:])
    report.log_pages_read = pages_for_bytes(log_bytes, PAGE_SIZE)
    for __ in range(report.log_pages_read):
        clock.charge_ms(_LOG, params.page_read_ms)

    # --- make the recovered state durable ------------------------------
    for key in sorted(fetched):
        page = disk.peek_page(*key)
        if page.dirty:
            disk.write_page(*key)
            report.pages_flushed += 1

    # Volatile per-file record counters died with the process; rebuild
    # them from the recovered pages (free bookkeeping, like the loader's).
    for sfile in db.manager._files.values():
        sfile._record_count = sum(
            p.record_count for p in disk.iter_pages(sfile.file_id)
        )
    # Restart is a fresh boot: no decoded object may outlive it (reads
    # between crash and restart would otherwise pin stale versions).
    db.handles.clear()

    # MVCC state is volatile by design: every active snapshot died with
    # its transaction and the committed state needs no pre-images, so
    # restart *discards* the version chains.  Only the commit-timestamp
    # high-water survives — rebuilt from durable commit records, so
    # post-restart snapshots order strictly after every pre-crash commit.
    txm.mvcc.clear()
    txm._snapshots.clear()
    txm.commit_ts = max(
        [txm.commit_ts]
        + [r.commit_ts for r in records if r.kind == "commit"]
    )
    # Likewise the transaction-id high-water: a promoted standby never
    # began a transaction of its own, and a new one must not take an id
    # the durable log already names (2PC decisions are keyed by it).
    txm._next_txn_id = max(
        [txm._next_txn_id] + [r.txn_id + 1 for r in records]
    )

    report.seconds = clock.elapsed_s - start_s
    return report
