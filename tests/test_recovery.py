"""Unit and integration tests for the crash-recovery subsystem."""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError, ServiceError, SimulatedCrashError
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.recovery import (
    CRASH_POINTS,
    RECOVERY,
    CrashInjector,
    crash_database,
    restart,
    run_case,
    run_suite,
    take_checkpoint,
)
from repro.simtime import CostParams, SimClock
from repro.storage.page import EMPTY_PAGE_IMAGE, Page
from repro.storage.rid import Rid
from repro.txn import TransactionManager, WriteAheadLog

from .chaos_pins import assert_pinned

_PAD = "p" * 40


def make_db() -> Database:
    schema = Schema()
    schema.define(
        "Thing",
        [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("pad", AttrKind.STRING, width=len(_PAD)),
        ],
    )
    db = Database(schema)
    db.create_file("things")
    return db


def make_loaded(n: int = 8) -> tuple[Database, TransactionManager, list[Rid]]:
    """A database with ``n`` durably-written base records and a
    recovery-mode transaction manager."""
    db = make_db()
    rids = [
        db.create_object("Thing", {"x": i, "pad": _PAD}, "things")
        for i in range(n)
    ]
    db.shutdown()
    txm = TransactionManager(db, recovery=True)
    return db, txm, rids


def read_x(db: Database, rid: Rid):
    return db.manager.get_attr_at(rid, "x")


# ------------------------------------------------------------- page images

class TestPageImage:
    def test_capture_restore_roundtrip(self):
        page = Page(0, 0)
        page.insert(b"alpha")
        page.insert(b"beta")
        page.page_lsn = 7
        image = page.capture()
        page.update(0, b"ALPHA")
        page.delete(1)
        page.restore(image)
        assert page.read(0) == b"alpha"
        assert page.read(1) == b"beta"
        assert page.page_lsn == 7
        assert page.used_bytes == image.used

    def test_capture_maps_forwarding_entries(self):
        page = Page(0, 0)
        page.insert(b"moved")
        target = Rid(0, 3, 1)
        page.forward(0, target)
        image = page.capture()
        assert image.slots[0] == target
        fresh = Page(0, 0)
        fresh.restore(image)
        assert fresh.forward_target(0) == target

    def test_apply_undo_reverts_only_changed_slots(self):
        """Undo must not clobber another transaction's later change to a
        different slot of the same page."""
        page = Page(0, 0)
        page.insert(b"mine-old")
        page.insert(b"theirs-old")
        before = page.capture()
        page.update(0, b"mine-new!")
        after = page.capture()
        # Another transaction commits to slot 1 afterwards.
        page.update(1, b"theirs-new")
        page.apply_undo(before, after)
        assert page.read(0) == b"mine-old"
        assert page.read(1) == b"theirs-new"

    def test_apply_undo_of_insert_never_reuses_the_slot(self):
        page = Page(0, 0)
        page.insert(b"base")
        before = page.capture()
        slot = page.insert(b"loser")
        after = page.capture()
        page.apply_undo(before, after)
        # The directory keeps the dead slot so rids are never reissued.
        assert page.insert(b"winner") == slot + 1
        assert page.slots() == [0, slot + 1]


# ------------------------------------------------------------- physical WAL

class TestPhysicalLog:
    def make(self):
        clock = SimClock()
        return clock, WriteAheadLog(clock, CostParams())

    def test_lsns_are_monotonic(self):
        __, log = self.make()
        lsns = [log.append(1, "update", 32).lsn for __ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_stamp_sets_page_lsn_and_dirty_page_table(self):
        __, log = self.make()
        page = Page(0, 0)
        first = log.append(1, "update", 32, page_key=(0, 0))
        log.stamp(page, first)
        second = log.append(1, "update", 32, page_key=(0, 0))
        log.stamp(page, second)
        assert page.page_lsn == second.lsn
        # rec_lsn stays the FIRST record that dirtied the page.
        assert log.dirty_pages == {(0, 0): first.lsn}
        log.note_page_written((0, 0))
        assert log.dirty_pages == {}

    def test_flush_advances_durable_boundary(self):
        __, log = self.make()
        log.append(1, "update", 32)
        last = log.append(1, "commit", 16)
        assert log.durable_lsn == 0
        log.flush()
        assert log.durable_lsn == last.lsn
        assert [r.lsn for r in log.durable_records()] == [1, 2]

    def test_partial_flush_leaves_durable_prefix(self):
        """A flush torn after k of n pages makes durable exactly the
        records that fit entirely within those k pages."""
        __, log = self.make()
        from repro.units import PAGE_SIZE

        records = [log.append(1, "update", PAGE_SIZE // 2) for __ in range(6)]
        pages = log.flush(max_pages=1)
        assert pages == 1
        assert log.durable_lsn == records[1].lsn  # 2 halves fill page 1
        assert log.pending_bytes == 4 * (PAGE_SIZE // 2)
        # The next full flush picks up the torn tail.
        log.flush()
        assert log.durable_lsn == records[-1].lsn
        assert log.pending_bytes == 0

    def test_crash_truncates_to_durable(self):
        __, log = self.make()
        log.append(1, "update", 32)
        log.flush()
        log.append(1, "update", 32)
        log.append(1, "commit", 16)
        log.crash()
        assert [r.lsn for r in log.records] == [1]
        assert log.pending_bytes == 0


# ------------------------------------------------------------- the WAL rule

class TestWalRule:
    def test_dirty_page_write_forces_log_flush(self):
        db, txm, rids = make_loaded()
        with txm.begin() as txn:
            txn.update_scalar(rids[0], "x", 999)
            # Commit has not happened yet: the update record is pending.
            assert txm.log.durable_lsn < txm.log.next_lsn - 1
            before = txm.log.forced_flushes
            db.disk.write_page(rids[0].file_id, rids[0].page_no)
            assert txm.log.forced_flushes == before + 1
            assert txm.log.durable_lsn == txm.log.next_lsn - 1

    def test_clean_page_write_does_not_flush(self):
        db, txm, rids = make_loaded()
        before = txm.log.forced_flushes
        db.disk.write_page(rids[0].file_id, rids[0].page_no)
        assert txm.log.forced_flushes == before


# ------------------------------------------------------------- rollback

class TestPhysicalRollback:
    def test_abort_restores_updated_value(self):
        db, txm, rids = make_loaded()
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 12345)
        assert read_x(db, rids[0]) == 12345
        txn.abort()
        assert read_x(db, rids[0]) == 0
        kinds = [r.kind for r in txm.log.records]
        assert "clr" in kinds and kinds[-1] == "abort"

    def test_abort_removes_created_object(self):
        db, txm, rids = make_loaded()
        txn = txm.begin()
        rid = txn.create_object("Thing", {"x": 7, "pad": _PAD}, "things")
        count = db.file("things").record_count
        txn.abort()
        assert db.file("things").record_count == count - 1
        with pytest.raises(Exception):
            read_x(db, rid)

    def test_clr_records_are_not_undone_twice(self):
        """The rollback skips changes already compensated — abort after a
        partial rollback (modeled by calling the internal helper) stays
        idempotent."""
        db, txm, rids = make_loaded()
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 111)
        txn.update_scalar(rids[1], "x", 222)
        txn._rollback_physical()
        clrs = sum(1 for r in txm.log.records if r.kind == "clr")
        txn.abort()  # runs the rollback again, then logs the abort
        assert sum(1 for r in txm.log.records if r.kind == "clr") == clrs
        assert read_x(db, rids[0]) == 0
        assert read_x(db, rids[1]) == 1


# ------------------------------------------------------------- restart

class TestRestart:
    def test_redo_recovers_committed_update(self):
        db, txm, rids = make_loaded()
        with txm.begin() as txn:
            txn.update_scalar(rids[0], "x", 4242)
        # Commit flushed the log but the data page was never written.
        crash_database(db, txm)
        assert read_x(db, rids[0]) == 0  # durable disk is stale
        report = restart(db, txm)
        assert read_x(db, rids[0]) == 4242
        assert report.records_redone >= 1
        assert report.txns_undone == 0
        assert report.seconds > 0

    def test_undo_rolls_back_loser(self):
        db, txm, rids = make_loaded()
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 777)
        txm.log.flush()  # the update record is durable, the txn is not
        crash_database(db, txm)
        report = restart(db, txm)
        assert read_x(db, rids[0]) == 0
        assert report.losers == (txn.txn_id,)
        assert report.records_undone >= 1
        kinds = [r.kind for r in txm.log.records]
        assert "clr" in kinds and "abort" in kinds

    def test_unflushed_loser_leaves_no_trace(self):
        db, txm, rids = make_loaded()
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 777)
        crash_database(db, txm)  # nothing was flushed
        report = restart(db, txm)
        assert read_x(db, rids[0]) == 0
        assert report.txns_undone == 0
        assert report.records_redone == 0

    def test_committed_create_survives_crash(self):
        db, txm, __ = make_loaded()
        with txm.begin() as txn:
            rid = txn.create_object("Thing", {"x": 55, "pad": _PAD}, "things")
        crash_database(db, txm)
        restart(db, txm)
        assert read_x(db, rid) == 55
        # The volatile per-file counter was rebuilt from the pages.
        assert db.file("things").record_count == 9

    def test_checkpoint_bounds_restart_scan(self):
        db, txm, rids = make_loaded()
        for i in range(6):
            with txm.begin() as txn:
                txn.update_scalar(rids[i], "x", 1000 + i)
        no_cp_case = make_loaded()
        take_checkpoint(db, txm)
        with txm.begin() as txn:
            txn.update_scalar(rids[6], "x", 1006)
        crash_database(db, txm)
        report = restart(db, txm)
        assert report.checkpoint_lsn > 0
        for i in range(7):
            assert read_x(db, rids[i]) == 1000 + i
        # Same tail workload without the checkpoint scans more records.
        db2, txm2, rids2 = no_cp_case
        for i in range(6):
            with txm2.begin() as txn:
                txn.update_scalar(rids2[i], "x", 1000 + i)
        with txm2.begin() as txn:
            txn.update_scalar(rids2[6], "x", 1006)
        crash_database(db2, txm2)
        report2 = restart(db2, txm2)
        assert report2.log_records_scanned > report.log_records_scanned

    def test_checkpoint_att_and_dpt_content(self):
        db, txm, rids = make_loaded()
        open_txn = txm.begin()
        open_txn.update_scalar(rids[0], "x", 5)
        record = take_checkpoint(db, txm, flush_pages=False)
        assert record.kind == "checkpoint"
        assert [t for t, __ in record.att] == [open_txn.txn_id]
        assert (rids[0].file_id, rids[0].page_no) in dict(record.dpt)
        # The flushing variant empties the dirty-page table instead.
        flushed = take_checkpoint(db, txm)
        assert flushed.dpt == ()
        open_txn.abort()

    def test_restart_is_idempotent(self):
        db, txm, rids = make_loaded()
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 31)
        txm.log.flush()
        crash_database(db, txm)
        restart(db, txm)
        value = read_x(db, rids[0])
        crash_database(db, txm)
        second = restart(db, txm)
        assert read_x(db, rids[0]) == value == 0
        assert second.records_undone == 0  # the CLRs made undo a no-op


# ------------------------------------------------------------- injector

class TestCrashInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(RecoveryError):
            CrashInjector("fsync")
        with pytest.raises(RecoveryError):
            CrashInjector("log-append", occurrence=0)

    def test_log_append_fires_on_nth_occurrence(self):
        db, txm, rids = make_loaded()
        injector = CrashInjector("log-append", occurrence=3)
        injector.arm(db, txm.log)
        txn = txm.begin()  # append #1: begin
        txn.update_scalar(rids[0], "x", 1)  # append #2: update
        with pytest.raises(SimulatedCrashError):
            txn.update_scalar(rids[1], "x", 2)  # append #3 fires
        assert injector.fired

    def test_fired_injector_refuses_further_work(self):
        db, txm, rids = make_loaded()
        injector = CrashInjector("log-append", occurrence=1)
        injector.arm(db, txm.log)
        txn_raised = pytest.raises(SimulatedCrashError)
        with txn_raised:
            txm.begin()
        with pytest.raises(SimulatedCrashError):
            txm.log.flush()
        with pytest.raises(SimulatedCrashError):
            db.disk.write_page(rids[0].file_id, rids[0].page_no)

    def test_flush_write_gap_loses_page_but_not_log(self):
        db, txm, rids = make_loaded()
        injector = CrashInjector("flush-write-gap", occurrence=1)
        injector.arm(db, txm.log)
        txn = txm.begin()
        txn.update_scalar(rids[0], "x", 64)
        with pytest.raises(SimulatedCrashError):
            db.disk.write_page(rids[0].file_id, rids[0].page_no)
        # The WAL rule ran before the page write: the log IS durable.
        assert txm.log.durable_lsn > 0
        crash_database(db, txm)
        restart(db, txm)
        assert read_x(db, rids[0]) == 0  # loser undone via the log

    def test_crash_database_disarms_and_truncates(self):
        db, txm, rids = make_loaded()
        injector = CrashInjector("log-append", occurrence=1)
        injector.arm(db, txm.log)
        with pytest.raises(SimulatedCrashError):
            txm.begin()
        crash_database(db, txm)
        assert txm.log.injector is None
        assert db.disk.injector is None
        assert txm.active_count == 0
        assert all(r.lsn <= txm.log.durable_lsn for r in txm.log.records)


# ------------------------------------------------------------- service

class TestServiceRecovery:
    def make_service(self, recovery: bool = True):
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.service import QueryService

        derby = load_derby(DerbyConfig.db_1to3(scale=0.00001))
        return derby, QueryService(derby, recovery=recovery)

    def test_crash_requires_recovery_mode(self):
        __, service = self.make_service(recovery=False)
        with pytest.raises(ServiceError):
            service.crash()
        with pytest.raises(ServiceError):
            service.recover()
        with pytest.raises(ServiceError):
            service.checkpoint()

    def test_crash_and_recover_roundtrip(self):
        derby, service = self.make_service()
        session = service.open_session("s")
        rid = derby.patient_rids[0]
        with service.immediate(session):
            session.begin()
            session.write_lock(rid)
            session.update_scalar(rid, "age", 33)
            session.commit()
        service.crash()
        report = service.recover()
        assert derby.db.manager.get_attr_at(rid, "age") == 33
        assert report.txns_undone == 0

    def test_mixer_crash_sets_crashed_and_recovers(self):
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.service import MixConfig, WorkloadMixer

        derby = load_derby(DerbyConfig.db_1to3(scale=0.00001))
        injector = CrashInjector("mix-run", occurrence=12)
        mixer = WorkloadMixer(
            derby, MixConfig.from_clients(4, seed=1), injector=injector
        )
        report = mixer.run()
        assert report.crashed
        assert injector.fired
        recovery = mixer.service.recover()
        assert recovery.seconds > 0
        # The database is usable again.
        age = derby.db.manager.get_attr_at(derby.patient_rids[0], "age")
        assert isinstance(age, int)

    def test_mixer_without_injector_is_unchanged(self):
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.service import MixConfig, WorkloadMixer

        derby = load_derby(DerbyConfig.db_1to3(scale=0.00001))
        mixer = WorkloadMixer(derby, MixConfig.from_clients(3, seed=1))
        report = mixer.run()
        assert not report.crashed
        assert mixer.service.recovery is False

    def test_unreached_crash_point_does_not_outlive_the_run(self):
        """The derby's disk outlives the service: an injector whose
        point was never reached must not stay armed on it, counting the
        page writes of every later workload."""
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.service import MixConfig, WorkloadMixer

        derby = load_derby(DerbyConfig.db_1to3(scale=0.00001))
        injector = CrashInjector("flush-write-gap", occurrence=10**6)
        mixer = WorkloadMixer(
            derby, MixConfig.from_clients(3, seed=1), injector=injector
        )
        report = mixer.run()
        assert not report.crashed and not injector.fired
        assert derby.db.disk.injector is None
        assert mixer.service.txm.log.injector is None
        seen = injector.seen
        WorkloadMixer(derby, MixConfig.from_clients(3, seed=2)).run()
        assert injector.seen == seen


# ------------------------------------------------------------- fuzz + export

class TestFuzz:
    def test_single_case_passes(self):
        result = run_case(RECOVERY, 0, "log-append")
        assert result.ok, result.failures

    def test_grid_smoke_with_determinism(self):
        results = run_suite(RECOVERY, 2, txns=6)
        assert len(results) == 2 * len(CRASH_POINTS)
        bad = [r for r in results if not r.ok]
        assert not bad, bad[0].failures if bad else None

    def test_pinned_digests_do_not_move(self):
        results = run_suite(RECOVERY, 5, check_determinism=False)
        assert_pinned("recovery", {f"{r.seed}/{r.point}": r for r in results})
