"""Tests for MVCC snapshot isolation: snapshot stability, the
first-committer-wins rule, lock-free reads, version GC, crash behaviour
and the service/mixer integration."""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.cluster.strategies import file_names
from repro.derby import DerbyConfig
from repro.errors import (
    RecordNotVisibleError,
    TransactionStateError,
    WriteConflictError,
)
from repro.objects import (
    AttrKind,
    AttributeDef,
    Database,
    Schema,
)
from repro.recovery import crash_database, restart
from repro.service import MixConfig, QueryService, WorkloadMixer
from repro.stats.export import mix_to_csv
from repro.storage.rid import Rid
from repro.txn import TransactionManager


def chain_versions(txm: TransactionManager) -> int:
    """Versions held across every MVCC chain."""
    return sum(len(chain) for chain in txm.mvcc._chains.values())

_PAD = "p" * 40


def make_loaded(n: int = 8):
    """A database with ``n`` durable base records and a recovery-mode
    transaction manager (SI requires physical logging)."""
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
    rids = [
        db.create_object("Thing", {"x": i, "pad": _PAD}, "things")
        for i in range(n)
    ]
    db.shutdown()
    txm = TransactionManager(db, recovery=True)
    return db, txm, rids


def fresh_tiny_derby():
    return load_derby(DerbyConfig.db_1to3(scale=0.00001))


# -------------------------------------------------------------- begin rules


class TestBeginRules:
    def test_si_requires_recovery_mode(self):
        schema = Schema()
        schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
        db = Database(schema)
        txm = TransactionManager(db, recovery=False)
        with pytest.raises(TransactionStateError):
            txm.begin(isolation="si")

    def test_si_requires_logged_transaction(self):
        db, txm, __ = make_loaded(1)
        with pytest.raises(TransactionStateError):
            txm.begin(logged=False, isolation="si")

    def test_unknown_isolation_rejected(self):
        db, txm, __ = make_loaded(1)
        with pytest.raises(ValueError):
            txm.begin(isolation="serializable")

    def test_pure_2pl_never_enables_mvcc(self):
        db, txm, rids = make_loaded(2)
        with txm.begin() as txn:
            txn.update_scalar(rids[0], "x", 99)
        assert not txm.mvcc_enabled
        assert chain_versions(txm) == 0
        assert txm.commit_ts == 0


# --------------------------------------------------------------- visibility


class TestSnapshotVisibility:
    def test_snapshot_is_stable_across_concurrent_commit(self):
        db, txm, rids = make_loaded(4)
        reader = txm.begin(isolation="si")
        assert reader.read_attr(rids[0], "x") == 0
        writer = txm.begin()
        writer.update_scalar(rids[0], "x", 100)
        writer.commit()
        # The live record moved on; the snapshot must not.
        assert reader.read_attr(rids[0], "x") == 0
        reader.commit()
        late = txm.begin(isolation="si")
        assert late.read_attr(rids[0], "x") == 100
        late.commit()

    def test_read_your_own_writes(self):
        db, txm, rids = make_loaded(2)
        txn = txm.begin(isolation="si")
        txn.update_scalar(rids[0], "x", 42)
        assert txn.read_attr(rids[0], "x") == 42
        txn.commit()

    def test_uncommitted_writer_is_invisible_to_snapshots(self):
        db, txm, rids = make_loaded(2)
        txm.enable_mvcc()
        writer = txm.begin()
        writer.update_scalar(rids[0], "x", 7)
        reader = txm.begin(isolation="si")
        assert reader.read_attr(rids[0], "x") == 0
        reader.commit()
        writer.commit()

    def test_object_created_after_snapshot_is_invisible(self):
        db, txm, rids = make_loaded(2)
        reader = txm.begin(isolation="si")
        writer = txm.begin()
        new_rid = writer.create_object(
            "Thing", {"x": 77, "pad": _PAD}, "things"
        )
        writer.commit()
        with pytest.raises(RecordNotVisibleError):
            reader.read_attr(new_rid, "x")
        reader.commit()
        late = txm.begin(isolation="si")
        assert late.read_attr(new_rid, "x") == 77
        late.commit()

    def test_si_readers_take_no_read_locks(self):
        db, txm, rids = make_loaded(2)
        reader = txm.begin(isolation="si")
        reader.read_attr(rids[0], "x")
        # Under strict 2PL the reader's S lock would block this X lock;
        # lock-free snapshot reads let the writer proceed immediately.
        writer = txm.begin()
        writer.update_scalar(rids[0], "x", 5)
        writer.commit()
        assert reader.read_attr(rids[0], "x") == 0
        reader.commit()

    def test_writer_inside_the_readers_page_fault_leaves_the_pre_image(self):
        """A cold snapshot read decides LIVE, then faults; the fault is a
        context switch, and the writer that runs in it updates and
        commits the very record.  The reader must re-decide after its
        read and resolve to the pre-image, not to the bytes it read."""
        db, txm, rids = make_loaded(2)
        txm.enable_mvcc()
        reader = txm.begin(isolation="si")
        switched = []

        def writer_runs_in_the_fault():
            if switched:
                return
            switched.append(True)
            with txm.begin() as writer:
                writer.update_scalar(rids[0], "x", 100)

        db.system.on_fault = writer_runs_in_the_fault
        try:
            assert reader.read_attr(rids[0], "x") == 0
        finally:
            db.system.on_fault = None
        assert switched
        assert reader.view.version_reads == 1
        reader.commit()
        late = txm.begin(isolation="si")
        assert late.read_attr(rids[0], "x") == 100
        late.commit()

    def test_writer_inside_the_kernels_page_fault_leaves_the_pre_image(self):
        """The same race through ``ObjectManager.fetch``: the kernel asks
        the view, finds the record live and its page not resident, and
        hands the rid to ``borrow``; the fault runs the writer, and the
        view's re-check after the read resolves to the pre-image."""
        db, txm, rids = make_loaded(2)
        txm.enable_mvcc()
        reader = txm.begin(isolation="si")
        switched = []

        def writer_runs_in_the_fault():
            if switched:
                return
            switched.append(True)
            with txm.begin() as writer:
                writer.update_scalar(rids[0], "x", 100)

        om = db.manager
        assert reader.view.live(rids[0])
        db.system.on_fault = writer_runs_in_the_fault
        om.read_view = reader.view
        rows: list = []
        try:
            om.fetch([rids[0]], lambda om, h: om.get_attr(h, "x"), rows)
        finally:
            om.read_view = None
            db.system.on_fault = None
        assert switched
        assert rows == [0]
        assert reader.view.version_reads == 1
        reader.commit()

    def test_version_handle_is_charged_the_version_pointer(self):
        db, txm, rids = make_loaded(2)
        reader = txm.begin(isolation="si")
        reader.read_attr(rids[0], "x")
        writer = txm.begin()
        writer.update_scalar(rids[0], "x", 9)
        writer.commit()
        # This load resolves through the version chain: the handle it
        # materializes carries the Section 4.4 version pointer for as
        # long as the reference is held.
        om = db.manager
        saved = om.read_view
        om.read_view = reader.view
        try:
            handle = om.load(rids[0])
        finally:
            om.read_view = saved
        assert handle.version is not None
        om.unref(handle)
        # Version handles are freed outright at refcount zero.
        assert (rids[0], handle.version) not in db.handles._versioned
        reader.commit()


# ---------------------------------------------------- first-committer-wins


class TestFirstCommitterWins:
    def test_later_committer_loses(self):
        db, txm, rids = make_loaded(2)
        first = txm.begin(isolation="si")
        second = txm.begin(isolation="si")
        first.update_scalar(rids[0], "x", 1)
        first.commit()
        with pytest.raises(WriteConflictError):
            second.update_scalar(rids[0], "x", 2)
        assert txm.conflicts == 1
        second.abort()
        assert db.manager.get_attr_at(rids[0], "x") == 1

    def test_retry_after_conflict_commits(self):
        db, txm, rids = make_loaded(2)
        first = txm.begin(isolation="si")
        second = txm.begin(isolation="si")
        first.update_scalar(rids[0], "x", 1)
        first.commit()
        with pytest.raises(WriteConflictError):
            second.update_scalar(rids[0], "x", 2)
        second.abort()
        # The retry opens a fresh snapshot that postdates the conflicting
        # commit, so the same write now succeeds.
        retry = txm.begin(isolation="si")
        retry.update_scalar(rids[0], "x", 2)
        retry.commit()
        assert db.manager.get_attr_at(rids[0], "x") == 2

    def test_commit_timestamps_are_monotonic(self):
        db, txm, rids = make_loaded(4)
        stamps = []
        for i, rid in enumerate(rids):
            txn = txm.begin(isolation="si")
            txn.update_scalar(rid, "x", i + 100)
            txn.commit()
            stamps.append(txn.commit_ts)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)
        assert txm.commit_ts == stamps[-1]


# ------------------------------------------------------------------ abort/GC


class TestChainsAndGc:
    def test_abort_withdraws_pending_versions(self):
        db, txm, rids = make_loaded(2)
        txm.enable_mvcc()
        txn = txm.begin(isolation="si")
        txn.update_scalar(rids[0], "x", 50)
        assert chain_versions(txm) == 1
        txn.abort()
        assert chain_versions(txm) == 0
        assert db.manager.get_attr_at(rids[0], "x") == 0

    def test_vacuum_respects_the_oldest_snapshot(self):
        db, txm, rids = make_loaded(2)
        reader = txm.begin(isolation="si")
        reader.read_attr(rids[0], "x")
        for value in (10, 20, 30):
            writer = txm.begin(isolation="si")
            writer.update_scalar(rids[0], "x", value)
            writer.commit()
        before = chain_versions(txm)
        assert before >= 3
        txm.vacuum()
        # The open snapshot pins the horizon: its version must survive.
        assert reader.read_attr(rids[0], "x") == 0
        reader.commit()
        freed = txm.vacuum()
        assert freed > 0
        assert chain_versions(txm) < before
        late = txm.begin(isolation="si")
        assert late.read_attr(rids[0], "x") == 30
        late.commit()


# ------------------------------------------------------------------- restart


class TestCrashRestart:
    def test_restart_discards_chains_and_restores_commit_ts(self):
        db, txm, rids = make_loaded(2)
        for value in (11, 22):
            txn = txm.begin(isolation="si")
            txn.update_scalar(rids[0], "x", value)
            txn.commit()
        high_water = txm.commit_ts
        assert high_water == 2
        loser = txm.begin(isolation="si")
        loser.update_scalar(rids[1], "x", 99)
        txm.log.flush()  # the loser's update record is durable, it is not
        crash_database(db, txm)
        restart(db, txm)
        assert chain_versions(txm) == 0
        assert txm.commit_ts == high_water
        assert txm.oldest_snapshot_ts is None
        # The loser's in-flight update was undone; committed state holds.
        assert db.manager.get_attr_at(rids[0], "x") == 22
        assert db.manager.get_attr_at(rids[1], "x") == 1
        txn = txm.begin(isolation="si")
        txn.update_scalar(rids[0], "x", 33)
        txn.commit()
        assert txn.commit_ts == high_water + 1


# ------------------------------------------------------------------- service


class TestServiceIntegration:
    def test_scan_repeats_identically_while_updater_commits(self):
        derby = fresh_tiny_derby()
        service = QueryService(derby, isolation="si")
        scanner = service.open_session("scanner")
        updater = service.open_session("updater")
        threshold = derby.config.num_threshold(50.0)
        oql = f"select p.age from p in Patients where p.num > {threshold}"
        scans: list[list] = []

        def scan_body():
            scanner.begin()
            scans.append(scanner.execute(oql))
            scanner.pause()  # the updater commits here
            scans.append(scanner.execute(oql))
            scanner.commit()

        def update_body():
            updater.begin()
            for rid in derby.patient_rids[:4]:
                updater.update_scalar(rid, "age", 1)
            updater.commit()

        service.spawn(scanner, scan_body)
        service.spawn(updater, update_body)
        tasks = service.run()
        service.close()
        assert all(t.error is None for t in tasks)
        # Same snapshot, same rows — the committed update is invisible.
        assert scans[0] == scans[1]
        assert scanner.metrics.lock_waits == 0
        late = service.txm.begin(isolation="si")
        assert late.read_attr(derby.patient_rids[0], "age") == 1
        late.commit()

    def test_si_mix_readers_wait_on_no_locks(self):
        config = MixConfig(
            navigators=1,
            scanners=1,
            updaters=2,
            ops_per_client=3,
            seed=7,
            isolation="si",
            lock_timeout_s=0.5,
            hot_set=4,
        )
        report = WorkloadMixer(fresh_tiny_derby(), config).run()
        assert report.committed > 0
        assert report.gave_up == 0
        for sr in report.sessions:
            if sr.profile != "updater":
                assert sr.metrics.lock_waits == 0

    def test_si_and_2pl_keyed_mixes_commit_identical_state(self):
        config = MixConfig(
            navigators=0,
            scanners=0,
            updaters=3,
            ops_per_client=4,
            seed=3,
            lock_timeout_s=0.5,
            max_retries=8,
            hot_set=4,
            update_values="keyed",
        )

        def end_state(isolation: str):
            from dataclasses import replace

            derby = fresh_tiny_derby()
            mixer = WorkloadMixer(
                derby, replace(config, isolation=isolation)
            )
            report = mixer.run()
            assert report.gave_up == 0
            hot = derby.patient_rids[: config.hot_set]
            om = derby.db.manager
            return [om.get_attr_at(rid, "age") for rid in hot]

        assert end_state("2pl") == end_state("si")

    def test_aggregates_pass_over_a_patient_the_snapshot_cannot_see(self):
        """A patient created and committed behind a reader's snapshot is
        not in it: ``sum`` and ``count`` fold exactly the rows that
        ``select p.age`` returns, as the exists filter and the
        projection do."""
        derby = fresh_tiny_derby()
        service = QueryService(derby, isolation="si")
        reader = service.open_session("reader")
        writer = service.open_session("writer")
        patient_file = file_names(derby.config.clustering)[1]
        with service.immediate(reader):
            reader.begin()
        with service.immediate(writer), writer.transaction() as txn:
            derby.patients.append(
                txn.create_object("Patient", {"age": 200}, patient_file)
            )
        with service.immediate(reader):
            ages = reader.execute("select p.age from p in Patients")
            total = reader.execute("select sum(p.age) from p in Patients")
            count = reader.execute("select count(p) from p in Patients")
            reader.commit()
        assert len(ages) == len(derby.patient_rids)
        assert (total, count) == ([sum(ages)], [len(ages)])

    def test_mix_csv_carries_conflict_columns(self):
        config = MixConfig.from_clients(
            3, ops_per_client=2, seed=2, isolation="si", lock_timeout_s=0.5
        )
        report = WorkloadMixer(fresh_tiny_derby(), config).run()
        csv = mix_to_csv(report)
        header = csv.splitlines()[0].split(",")
        assert "conflicts" in header
        assert "lock_waits" in header
        # The tail of the schema is pinned — downstream plots index it.
        assert header[-6:] == [
            "first_row_ms",
            "peak_rows",
            "retries",
            "cancelled",
            "over_budget",
            "queue_wait_ms",
        ]
