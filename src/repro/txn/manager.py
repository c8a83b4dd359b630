"""Transaction manager.

Models the two facts of O2 transaction life the paper's loading war
stories revolve around (Section 3.2):

* a transaction can only create so many objects before the client runs
  out of memory — :class:`Transaction` raises
  :class:`~repro.errors.TransactionMemoryError` past its budget, so
  loaders must commit in batches (the paper settled on 10,000);
* the *transaction-off* mode drops the log and the locks entirely, which
  is how large databases load fastest ("we used this mode only for
  loading, not for running our tests").

With ``recovery=True`` the manager additionally makes those trade-offs
*demonstrable*: logged transactions write physical records (page-level
before/after images chained by ``prev_lsn``), aborts roll the pages back
through compensation records, and :mod:`repro.recovery` can crash the
system and restart it.  Transaction-off work writes nothing to the log,
so after a crash it is simply gone — the durability half of the paper's
loading trade-off.
"""

from __future__ import annotations

from repro.errors import (
    TransactionMemoryError,
    TransactionStateError,
    WriteConflictError,
)
from repro.objects.database import Database
from repro.simtime import Bucket
from repro.storage.page import EMPTY_PAGE_IMAGE
from repro.storage.rid import Rid
from repro.txn.locks import LockManager, LockMode
from repro.txn.log import (
    ABORT_RECORD_BYTES,
    BEGIN_RECORD_BYTES,
    COMMIT_RECORD_BYTES,
    UPDATE_HEADER_BYTES,
    WriteAheadLog,
    image_delta_bytes,
)
from repro.txn.mvcc import Snapshot, SnapshotView, VersionStore

#: Objects one transaction may create before the simulated client memory
#: is exhausted (the batch size the paper settled on).
DEFAULT_OBJECT_BUDGET = 10_000

#: The isolation levels ``begin`` accepts.
ISOLATION_LEVELS = ("2pl", "si")


class Transaction:
    """One open transaction.  Usable as a context manager (commits on
    clean exit, aborts on exception)."""

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        logged: bool,
        isolation: str = "2pl",
    ):
        self.manager = manager
        self.txn_id = txn_id
        self.logged = logged
        self.isolation = isolation
        self.objects_created = 0
        self.state = "active"
        #: LSN of this transaction's most recent log record (undo chain).
        self.last_lsn = 0
        #: Whether the commit record is known durable (ack returned).
        self.durable = False
        #: Commit timestamp (assigned at commit; 0 while active / 2PL-only
        #: runs where MVCC was never enabled).
        self.commit_ts = 0
        #: Snapshot taken at begin for ``isolation="si"`` (else ``None``).
        self.snapshot: Snapshot | None = None
        self._view: SnapshotView | None = None
        self._write_set: set[Rid] = set()
        self._created: list[Rid] = []
        #: Whether this transaction writes page images to the log: fixed
        #: at ``begin`` (a manager is built in recovery mode or not).
        self._physical = logged and manager.recovery

    @property
    def view(self) -> SnapshotView | None:
        """This transaction's snapshot view (SI only), created lazily and
        shared across installs so ``version_reads`` accumulates."""
        if self.snapshot is None:
            return None
        if self._view is None:
            self._view = SnapshotView(self.manager.mvcc, self.snapshot)
        return self._view

    # -- operations --------------------------------------------------------

    def create_object(
        self,
        class_name: str,
        values: dict[str, object],
        file_name: str,
        indexed: bool = False,
        index_ids: tuple[int, ...] = (),
    ) -> Rid:
        """Create an object inside this transaction, enforcing the
        object budget and paying log + lock overhead when logged."""
        if self.state != "active":
            self._require_active()  # raises
        if self.objects_created >= self.manager.object_budget:
            raise TransactionMemoryError(
                f"transaction {self.txn_id} created "
                f"{self.objects_created} objects; commit before creating "
                "more (the paper's 'out of memory')"
            )
        if self._physical:
            db = self.manager.db
            sfile = db.file(file_name)
            rid = self._physical_op(
                "create",
                self._tail_keys(sfile.file_id),
                lambda: db.create_object(
                    class_name, values, file_name, indexed, index_ids
                ),
            )
            self._created.append(rid)
            self.objects_created += 1
            self.manager.locks.acquire(self.txn_id, rid, LockMode.EXCLUSIVE)
            self._si_note_create(rid)
            return rid
        rid = self.manager.db.create_object(
            class_name, values, file_name, indexed, index_ids
        )
        self.objects_created += 1
        if self.logged:
            record_len = 64  # header + redo info approximation
            self.manager.log.append(self.txn_id, "create", record_len)
            self.manager.locks.acquire(self.txn_id, rid, LockMode.EXCLUSIVE)
            self._si_note_create(rid)
        return rid

    def update_scalar(self, rid: Rid, attr_name: str, value: object) -> Rid:
        """Write-lock ``rid`` and update one scalar attribute through the
        object manager.  In recovery mode the touched pages' before and
        after images are logged; otherwise only the legacy 8-byte cost
        record is charged (identical to the historical Session path)."""
        self._require_active()
        if not self._physical:
            self.write_lock(rid)
            self._si_prepare_write(rid)
            new_rid = self.manager.db.manager.update_scalar(rid, attr_name, value)
            self.log_update(8)
            return new_rid
        self.manager.locks.acquire(self.txn_id, rid, LockMode.EXCLUSIVE)
        self._si_prepare_write(rid)
        db = self.manager.db
        return self._physical_op(
            "update",
            self._update_keys(rid),
            lambda: db.manager.update_scalar(rid, attr_name, value),
        )

    def update_set(self, rid: Rid, attr_name: str, value: object) -> Rid:
        """Like :meth:`update_scalar` for set-valued attributes (these
        can grow the record and move it to another page, so the physical
        log may carry several page images)."""
        self._require_active()
        if not self._physical:
            self.write_lock(rid)
            self._si_prepare_write(rid)
            new_rid = self.manager.db.manager.update_set(rid, attr_name, value)
            self.log_update(16)
            return new_rid
        self.manager.locks.acquire(self.txn_id, rid, LockMode.EXCLUSIVE)
        self._si_prepare_write(rid)
        db = self.manager.db
        return self._physical_op(
            "update",
            self._update_keys(rid),
            lambda: db.manager.update_set(rid, attr_name, value),
        )

    def read_lock(self, rid: Rid) -> None:
        """Shared-lock ``rid`` — a no-op under snapshot isolation, where
        reads resolve through the version chains instead of the lock
        table (zero read locks, zero lock waits for scans)."""
        self._require_active()
        if self.logged and self.isolation != "si":
            self.manager.locks.acquire(self.txn_id, rid, LockMode.SHARED)

    def read_attr(self, rid: Rid, name: str) -> object:
        """Read one attribute at this transaction's isolation level:
        under SI through the snapshot view (no locks), under 2PL via a
        shared lock and the live record."""
        self._require_active()
        om = self.manager.db.manager
        if self.isolation == "si":
            saved = om.read_view
            om.read_view = self.view
            try:
                return om.get_attr_at(rid, name)
            finally:
                om.read_view = saved
        self.read_lock(rid)
        return om.get_attr_at(rid, name)

    def write_lock(self, rid: Rid) -> None:
        self._require_active()
        if self.logged:
            self.manager.locks.acquire(self.txn_id, rid, LockMode.EXCLUSIVE)

    def log_update(self, nbytes: int) -> None:
        self._require_active()
        if self.logged:
            self.manager.log.append(self.txn_id, "update", nbytes)

    # -- MVCC write-side hooks ----------------------------------------------

    def _si_prepare_write(self, rid: Rid) -> None:
        """Runs under the freshly-acquired X-lock, before the in-place
        write: first-committer-wins check, then stash the committed
        pre-image into the version chain (once per rid per txn).

        Stashing happens for *every* logged write once MVCC is enabled —
        not just writes by SI transactions — because a concurrent
        snapshot must be able to see the pre-image of a 2PL writer's
        update too."""
        manager = self.manager
        if not manager.mvcc_enabled or not self.logged:
            return
        if rid in self._write_set:
            return
        store = manager.mvcc
        if (
            self.snapshot is not None
            and store.committed_ts(rid) > self.snapshot.begin_ts
        ):
            manager.conflicts += 1
            raise WriteConflictError(
                f"txn {self.txn_id} (begin_ts={self.snapshot.begin_ts}) "
                f"lost first-committer-wins on {rid}: a version committed "
                f"at ts={store.committed_ts(rid)} postdates its snapshot"
            )
        record, __ = manager.db.manager.file_for(rid).read_resolving(rid)
        store.stash(rid, record, self.txn_id)
        self._write_set.add(rid)

    def _si_note_create(self, rid: Rid) -> None:
        if not self.manager.mvcc_enabled or not self.logged:
            return
        self.manager.mvcc.note_create(rid, self.txn_id)
        self._write_set.add(rid)

    # -- physical logging (recovery mode) -----------------------------------

    def _tail_keys(self, file_id: int) -> set[tuple[int, int]]:
        """Pages an append-at-tail insert may touch before it runs."""
        n = self.manager.db.disk.num_pages(file_id)
        return {(file_id, n - 1)} if n else set()

    def _update_keys(self, rid: Rid) -> set[tuple[int, int]]:
        """Pages an in-place update may touch: the rid's origin page,
        the forwarding target (if the record already moved) and the
        file's tail page (where a growing record would be reallocated)."""
        db = self.manager.db
        keys = {(rid.file_id, rid.page_no)}
        page = db.disk.peek_page(rid.file_id, rid.page_no)
        target = page.forward_target(rid.slot)
        if target is not None:
            keys.add((target.file_id, target.page_no))
        keys |= self._tail_keys(rid.file_id)
        return keys

    def _physical_op(self, kind: str, pre_keys: set[tuple[int, int]], apply) -> Rid:
        """Run ``apply`` and log one physical record per page it changed.

        ``pre_keys`` are the pages the operation may touch; their images
        are captured first (page access is uncharged here — the charged
        reads happen inside ``apply`` through the normal pager path).

        The capture/apply/log sequence must be atomic with respect to
        the cooperative scheduler: a page fault inside ``apply`` would
        otherwise yield to another session whose writes land between our
        two captures and contaminate the images.  Locks are always taken
        *before* this method, so suspending the fault-yield hook cannot
        deadlock; the fault I/O itself is still charged.
        """
        db = self.manager.db
        log = self.manager.log
        saved_on_fault = db.system.on_fault
        db.system.on_fault = None
        try:
            return self._physical_op_atomic(kind, pre_keys, apply, db, log)
        finally:
            db.system.on_fault = saved_on_fault

    def _physical_op_atomic(self, kind, pre_keys, apply, db, log) -> Rid:
        befores = {
            key: db.disk.peek_page(*key).capture() for key in pre_keys
        }
        result_rid = apply()
        keys = set(pre_keys)
        keys.add((result_rid.file_id, result_rid.page_no))
        for key in sorted(keys):
            page = db.disk.peek_page(*key)
            after = page.capture()
            before = befores.get(key, EMPTY_PAGE_IMAGE)
            if before == after:
                continue
            record = log.append(
                self.txn_id,
                kind,
                UPDATE_HEADER_BYTES + image_delta_bytes(before, after),
                prev_lsn=self.last_lsn,
                page_key=key,
                before=before,
                after=after,
            )
            self.last_lsn = record.lsn
            log.stamp(page, record)
        return result_rid

    def _rollback_physical(self) -> None:
        """Undo this transaction's page changes, newest first, logging a
        compensation (``clr``) record for each so a crash during or
        after the rollback replays it rather than repeating it."""
        db = self.manager.db
        log = self.manager.log
        compensated = {
            r.undoes_lsn
            for r in log.records
            if r.txn_id == self.txn_id and r.kind == "clr"
        }
        mine = [
            r
            for r in log.records
            if r.txn_id == self.txn_id
            and r.kind in ("create", "update")
            and r.lsn not in compensated
        ]
        for record in reversed(mine):
            page = db.system.get_page(*record.page_key)
            before = page.capture()
            page.apply_undo(record.before, record.after)
            clr = log.append(
                self.txn_id,
                "clr",
                record.nbytes,
                prev_lsn=self.last_lsn,
                page_key=record.page_key,
                before=before,
                after=page.capture(),
                undoes_lsn=record.lsn,
            )
            self.last_lsn = clr.lsn
            log.stamp(page, clr)
            db.system.mark_dirty(*record.page_key)
            db.handles.forget_page(*record.page_key)
            db.clock.charge_us(Bucket.LOG, db.params.log_apply_us)
        for rid in self._created:
            sfile = db.manager.file_for(rid)
            sfile._record_count -= 1

    # -- completion ---------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        if self.logged:
            # The commit timestamp is drawn *before* the record is
            # appended so it rides in the durable record (restart
            # restores the high-water from it), but the manager's
            # high-water only advances after the flush succeeds — the
            # same moment the versions become visible, so commit order
            # and visibility order are one total order.
            ts = self.manager.commit_ts + 1 if self.manager.mvcc_enabled else 0
            self.manager.log.append(
                self.txn_id,
                "commit",
                COMMIT_RECORD_BYTES,
                prev_lsn=self.last_lsn,
                commit_ts=ts,
            )
            self.manager.log.flush()
            self.durable = True
            if self.manager.mvcc_enabled:
                self.manager.commit_ts = ts
                self.commit_ts = ts
                self.manager.mvcc.commit(self.txn_id, ts)
            # Strict 2PL: locks may only drop once the commit record is
            # durable, so this must NOT move into a finally around
            # flush() — if the flush fails the locks have to stay held
            # (a crash clears the volatile lock table anyway).
            # simlint: ok[PAIR] locks must outlive an un-flushed commit record
            self.manager.locks.release_all(self.txn_id)
        self.manager.db.clock.charge_ms(
            Bucket.LOG, self.manager.db.params.commit_ms
        )
        self.state = "committed"
        self.manager._on_finished(self)

    def abort(self) -> None:
        self._require_active()
        if self.logged:
            try:
                if self.manager.recovery:
                    self._rollback_physical()
                self.manager.log.append(
                    self.txn_id,
                    "abort",
                    ABORT_RECORD_BYTES,
                    prev_lsn=self.last_lsn,
                )
            finally:
                # Unlike commit, abort must shed its locks even when the
                # rollback itself fails (e.g. an injected crash point):
                # a dead transaction holding locks deadlocks every later
                # client that touches the same pages.
                self.manager.locks.release_all(self.txn_id)
                # Withdraw pending chain entries likewise: the rollback
                # restored the live record to exactly the stashed image,
                # so keeping them would duplicate the live state.
                if self.manager.mvcc_enabled:
                    self.manager.mvcc.abort(self.txn_id)
        self.state = "aborted"
        self.manager._on_finished(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def _require_active(self) -> None:
        if self.state != "active":
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state}"
            )


class TransactionManager:
    """Opens transactions against one database.

    ``recovery=True`` switches logged transactions to physical logging
    (page images, begin records, rollback on abort) and registers the
    log with the disk so the WAL rule is enforced on page writes.  The
    default stays the historical cost-only mode, whose charges are
    byte-for-byte unchanged.
    """

    def __init__(
        self,
        db: Database,
        object_budget: int = DEFAULT_OBJECT_BUDGET,
        recovery: bool = False,
    ):
        if object_budget < 1:
            raise ValueError("object budget must be >= 1")
        self.db = db
        self.object_budget = object_budget
        self.recovery = recovery
        self.log = WriteAheadLog(db.clock, db.params)
        self.locks = LockManager(db.clock, db.params)
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0
        #: Monotonic commit-timestamp high-water (restored from durable
        #: commit records at restart).  Only advances once MVCC is on.
        self.commit_ts = 0
        #: Per-record version chains + commit-ts bookkeeping (volatile).
        self.mvcc = VersionStore(db.clock, db.params)
        #: Flips permanently at the first ``begin(isolation="si")`` (or
        #: :meth:`enable_mvcc`); until then no write stashes pre-images,
        #: so pure-2PL runs stay byte-for-byte cost-identical to the
        #: pre-MVCC system.
        self.mvcc_enabled = False
        #: First-committer-wins losers (``WriteConflictError`` raised).
        self.conflicts = 0
        self._snapshots: dict[int, Snapshot] = {}
        if recovery:
            db.disk.wal = self.log

    def begin(self, logged: bool = True, isolation: str = "2pl") -> Transaction:
        """Open a transaction.  ``logged=False`` is the transaction-off
        loading mode: no log, no locks, no commit flush — but the object
        budget still applies (it models client memory, not the log).

        ``isolation="si"`` opens a snapshot-isolation transaction: it
        captures a :class:`~repro.txn.mvcc.Snapshot` now, reads through
        the version chains with zero read locks, keeps 2PL X-locks for
        writes, and loses first-committer-wins races with
        :class:`~repro.errors.WriteConflictError`.  SI requires recovery
        mode — the stashed pre-images double as the images aborts roll
        back to, which only physical logging guarantees."""
        if isolation not in ISOLATION_LEVELS:
            raise ValueError(
                f"unknown isolation level {isolation!r}; "
                f"pick one of {ISOLATION_LEVELS}"
            )
        if isolation == "si":
            if not logged:
                raise TransactionStateError(
                    "snapshot isolation requires a logged transaction"
                )
            if not self.recovery:
                raise TransactionStateError(
                    "snapshot isolation requires recovery mode (aborts "
                    "must physically restore the stashed pre-images)"
                )
            self.enable_mvcc()
        txn = Transaction(self, self._next_txn_id, logged, isolation=isolation)
        self._next_txn_id += 1
        if isolation == "si":
            txn.snapshot = Snapshot(
                txn.txn_id, self.commit_ts, frozenset(self._active)
            )
            self._snapshots[txn.txn_id] = txn.snapshot
        self._active[txn.txn_id] = txn
        if logged and self.recovery:
            record = self.log.append(txn.txn_id, "begin", BEGIN_RECORD_BYTES)
            txn.last_lsn = record.lsn
        return txn

    def enable_mvcc(self) -> None:
        """Start stashing pre-images for every logged write.  Writes
        already in flight before this point are not versioned; a service
        configured with ``isolation="si"`` enables MVCC before any
        client runs, so its snapshots are complete."""
        self.mvcc_enabled = True

    # -- MVCC garbage collection ---------------------------------------

    @property
    def oldest_snapshot_ts(self) -> int | None:
        """Begin timestamp of the oldest active snapshot (the GC
        horizon), or ``None`` when no SI transaction is active."""
        if not self._snapshots:
            return None
        return min(s.begin_ts for s in self._snapshots.values())

    def vacuum(self) -> int:
        """Sweep version chains: drop every version older than the
        oldest active snapshot.  Returns versions freed.  Driven by the
        service's resource governor every few commits."""
        if not self.mvcc_enabled:
            return 0
        horizon = self.oldest_snapshot_ts
        if horizon is None:
            horizon = self.commit_ts
        return self.mvcc.sweep(horizon)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def active_transactions(self) -> list[Transaction]:
        """Open transactions, oldest first (checkpoint ATT source)."""
        return [self._active[k] for k in sorted(self._active)]

    def crash_volatile(self) -> None:
        """A crash wiped the process: every open transaction simply
        ceases to exist (restart will undo the losers from the log), all
        lock state evaporates, and so do the version chains — restart
        rebuilds nothing (the committed state needs no history) and
        restores only the commit-ts high-water from durable commits."""
        for txn in self._active.values():
            txn.state = "crashed"
        self._active.clear()
        self.locks.clear()
        self._snapshots.clear()
        self.mvcc.clear()

    def _on_finished(self, txn: Transaction) -> None:
        self._active.pop(txn.txn_id, None)
        self._snapshots.pop(txn.txn_id, None)
        om = self.db.manager
        if txn._view is not None and om.read_view is txn._view:
            om.read_view = None
        if txn.state == "committed":
            self.committed += 1
        else:
            self.aborted += 1
