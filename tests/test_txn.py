"""Unit tests for the transaction subsystem."""

from __future__ import annotations

import pytest

from repro.errors import (
    LockConflictError,
    TransactionMemoryError,
    TransactionStateError,
)
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.rid import Rid
from repro.txn import LockManager, LockMode, TransactionManager, WriteAheadLog


def held_by(locks: LockManager, rid: Rid):
    """``(mode, holders)`` of ``rid``'s granted locks, ``None`` when
    nobody holds one."""
    state = locks._locks.get(rid)
    if state is None or not state.granted:
        return None
    return state.mode, set(state.granted)


def queued_on(locks: LockManager, rid: Rid) -> list:
    """``rid``'s FIFO wait queue as ``(txn, mode)`` pairs."""
    state = locks._locks.get(rid)
    return [] if state is None else [(r.txn_id, r.mode) for r in state.queue]


def make_db() -> Database:
    schema = Schema()
    schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
    db = Database(schema)
    db.create_file("things")
    return db


# ------------------------------------------------------------- WAL

class TestWriteAheadLog:
    def make(self):
        clock = SimClock()
        return clock, WriteAheadLog(clock, CostParams())

    def test_append_charges_cpu(self):
        clock, log = self.make()
        log.append(1, "create", 64)
        assert clock.buckets.get(Bucket.LOG, 0.0) > 0
        assert log._unflushed_bytes == 64

    def test_flush_charges_page_writes(self):
        clock, log = self.make()
        for __ in range(100):
            log.append(1, "create", 64)
        before = clock.buckets.get(Bucket.LOG, 0.0)
        pages = log.flush()
        assert pages == 2  # 6400 bytes -> 2 pages
        assert clock.buckets.get(Bucket.LOG, 0.0) - before == pytest.approx(
            2 * CostParams().page_write_ms / 1000
        )
        assert log._unflushed_bytes == 0

    def test_flush_empty_is_free(self):
        """A zero-pending flush must not charge any simulated I/O."""
        clock, log = self.make()
        before = clock.elapsed_s
        assert log.flush() == 0
        assert clock.elapsed_s == before
        assert log.flushed_pages == 0
        # Still free the second time (idempotent no-op).
        assert log.flush() == 0
        assert clock.elapsed_s == before

    def test_flush_then_empty_flush_charges_nothing_more(self):
        clock, log = self.make()
        log.append(1, "create", 64)
        log.flush()
        after_first = clock.elapsed_s
        assert log.flush() == 0
        assert clock.elapsed_s == after_first

    def test_negative_payload_rejected(self):
        __, log = self.make()
        with pytest.raises(ValueError):
            log.append(1, "create", -1)

    def test_pending_bytes_consistent_after_abort(self):
        """After an abort the pending counter must equal exactly the
        bytes of the still-unflushed records (the create + the abort
        marker), and the next commit's flush must drain it to zero."""
        db = make_db()
        txm = TransactionManager(db)
        txn = txm.begin()
        txn.create_object("Thing", {"x": 1}, "things")
        create_bytes = txm.log._unflushed_bytes
        assert create_bytes > 0
        txn.abort()
        abort_bytes = txm.log.records[-1].nbytes
        assert txm.log.records[-1].kind == "abort"
        assert txm.log._unflushed_bytes == create_bytes + abort_bytes
        # The next committed transaction flushes the whole backlog.
        txn2 = txm.begin()
        txn2.create_object("Thing", {"x": 2}, "things")
        txn2.commit()
        assert txm.log._unflushed_bytes == 0
        assert txm.log.flush() == 0  # nothing left to write


# ------------------------------------------------------------- locks

class TestLockManager:
    def make(self):
        return LockManager(SimClock(), CostParams())

    def test_shared_locks_compatible(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.SHARED)
        locks.acquire(2, rid, LockMode.SHARED)
        assert held_by(locks, rid)[1] == {1, 2}

    def test_exclusive_conflicts(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(2, rid, LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(2, rid, LockMode.EXCLUSIVE)

    def test_sole_holder_upgrade(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.SHARED)
        locks.acquire(1, rid, LockMode.EXCLUSIVE)
        assert held_by(locks, rid)[0] is LockMode.EXCLUSIVE

    def test_shared_upgrade_blocked_by_other_reader(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.SHARED)
        locks.acquire(2, rid, LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(1, rid, LockMode.EXCLUSIVE)

    def test_release_all(self):
        locks = self.make()
        locks.acquire(1, Rid(0, 0, 0), LockMode.EXCLUSIVE)
        locks.acquire(1, Rid(0, 0, 1), LockMode.SHARED)
        locks.acquire(2, Rid(0, 0, 1), LockMode.SHARED)
        assert locks.release_all(1) == 2
        assert locks.lock_count == 1  # txn 2 still holds one

    def test_fail_fast_without_scheduler_keeps_queue_empty(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(2, rid, LockMode.SHARED)
        assert locks.waiting_count == 0
        assert queued_on(locks, rid) == []

    def test_wait_mode_grants_after_release(self):
        """With a waiter attached, a conflicting request queues; when the
        holder releases, the queued request is granted and woken."""
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.EXCLUSIVE)
        woken = []

        def wait(txn_id, waited_rid):
            assert queued_on(locks, waited_rid) == [(2, LockMode.EXCLUSIVE)]
            assert locks.waits_for() == {2: {1}}
            locks.release_all(1)  # grants + wakes the queued request

        locks.attach(wait, woken.append)
        locks.acquire(2, rid, LockMode.EXCLUSIVE)
        assert woken == [2]
        assert held_by(locks, rid) == (LockMode.EXCLUSIVE, {2})
        assert locks.waiting_count == 0

    def test_wait_mode_cancels_request_when_wait_raises(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.acquire(1, rid, LockMode.EXCLUSIVE)

        def wait(txn_id, waited_rid):
            locks.cancel_wait(txn_id)
            raise LockConflictError("victim")

        locks.attach(wait, lambda txn_id: None)
        with pytest.raises(LockConflictError):
            locks.acquire(2, rid, LockMode.EXCLUSIVE)
        assert locks.waiting_count == 0
        assert held_by(locks, rid) == (LockMode.EXCLUSIVE, {1})

    def test_detach_restores_fail_fast(self):
        locks = self.make()
        rid = Rid(0, 0, 0)
        locks.attach(lambda t, r: locks.release_all(1), lambda t: None)
        locks.detach()
        locks.acquire(1, rid, LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(2, rid, LockMode.EXCLUSIVE)


# ------------------------------------------------------------- transactions

class TestTransaction:
    def test_create_within_budget(self):
        db = make_db()
        txm = TransactionManager(db, object_budget=5)
        with txm.begin() as txn:
            for i in range(5):
                txn.create_object("Thing", {"x": i}, "things")
        assert db.file("things").record_count == 5

    def test_budget_overflow_raises_out_of_memory(self):
        db = make_db()
        txm = TransactionManager(db, object_budget=3)
        txn = txm.begin()
        for i in range(3):
            txn.create_object("Thing", {"x": i}, "things")
        with pytest.raises(TransactionMemoryError):
            txn.create_object("Thing", {"x": 99}, "things")
        txn.abort()

    def test_budget_applies_even_without_logging(self):
        db = make_db()
        txm = TransactionManager(db, object_budget=2)
        txn = txm.begin(logged=False)
        txn.create_object("Thing", {"x": 0}, "things")
        txn.create_object("Thing", {"x": 1}, "things")
        with pytest.raises(TransactionMemoryError):
            txn.create_object("Thing", {"x": 2}, "things")
        txn.abort()

    def test_commit_flushes_log_and_releases_locks(self):
        db = make_db()
        txm = TransactionManager(db)
        txn = txm.begin()
        txn.create_object("Thing", {"x": 1}, "things")
        assert txm.locks.lock_count == 1
        txn.commit()
        assert txm.locks.lock_count == 0
        assert txm.log.flushed_pages >= 1
        assert txn.state == "committed"

    def test_transaction_off_mode_skips_log_and_locks(self):
        db = make_db()
        txm = TransactionManager(db)
        txn = txm.begin(logged=False)
        txn.create_object("Thing", {"x": 1}, "things")
        assert txm.locks.lock_count == 0
        assert txm.log._unflushed_bytes == 0
        txn.commit()
        assert txm.log.flushed_pages == 0

    def test_transaction_off_loads_cheaper(self):
        def load_cost(logged: bool) -> float:
            db = make_db()
            txm = TransactionManager(db, object_budget=10_000)
            with txm.begin(logged=logged) as txn:
                for i in range(2000):
                    txn.create_object("Thing", {"x": i}, "things")
            return db.clock.elapsed_s

        assert load_cost(False) < load_cost(True)

    def test_context_manager_aborts_on_exception(self):
        db = make_db()
        txm = TransactionManager(db)
        with pytest.raises(RuntimeError):
            with txm.begin() as txn:
                txn.create_object("Thing", {"x": 1}, "things")
                raise RuntimeError("boom")
        assert txn.state == "aborted"
        assert txm.locks.lock_count == 0

    def test_finished_transaction_rejects_operations(self):
        db = make_db()
        txm = TransactionManager(db)
        txn = txm.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.create_object("Thing", {"x": 1}, "things")
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_active_bookkeeping(self):
        db = make_db()
        txm = TransactionManager(db)
        t1, t2 = txm.begin(), txm.begin()
        assert txm.active_count == 2
        t1.commit()
        t2.abort()
        assert txm.active_count == 0
        assert txm.committed == 1
        assert txm.aborted == 1

    def test_lock_helpers(self):
        db = make_db()
        txm = TransactionManager(db)
        txn = txm.begin()
        rid = Rid(0, 0, 0)
        txn.read_lock(rid)
        assert held_by(txm.locks, rid)[0] is LockMode.SHARED
        txn.write_lock(rid)
        assert held_by(txm.locks, rid)[0] is LockMode.EXCLUSIVE
        txn.commit()

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            TransactionManager(make_db(), object_budget=0)
