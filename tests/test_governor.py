"""Tests for the query service's governance: budgets, cancellation,
retry backoff, admission control, and the transient-fault machinery
underneath it."""

from __future__ import annotations

from random import Random

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.errors import (
    BudgetExceededError,
    GovernorError,
    LockConflictError,
    LockTimeoutError,
    PermanentIOError,
    QueryCancelledError,
    StatementTimeoutError,
)
from repro.recovery import TransientFaultInjector
from repro.service import (
    CooperativeScheduler,
    MixConfig,
    QueryService,
    WorkloadMixer,
)
from repro.service.workload import (
    MAX_BACKOFF_S,
    RETRY_JITTER,
    RETRY_MULTIPLIER,
    ClientMix,
)
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.disk import DiskManager
from repro.storage.rid import Rid
from repro.txn import LockManager, LockMode

A = Rid(0, 0, 0)

SCAN = "select p.age from p in Patients where p.num > 0"


def fresh_derby(scale: float = 0.00001):
    return load_derby(DerbyConfig.db_1to3(scale=scale))


def make_lock_world(timeout_s: float | None = None):
    clock = SimClock()
    locks = LockManager(clock, CostParams(), timeout_s=timeout_s)
    scheduler = CooperativeScheduler(clock, locks)
    return clock, locks, scheduler


# ----------------------------------------------------------- retry backoff


class _NoJitter:
    """A generator whose every draw is 0.0: no backoff is jittered."""

    def random(self) -> float:
        return 0.0


class TestBackoff:
    def test_backoff_is_deterministic_for_a_seed(self):
        mix = ClientMix()
        a = [mix.backoff_s(i, Random(42)) for i in range(4)]
        b = [mix.backoff_s(i, Random(42)) for i in range(4)]
        assert a == b

    def test_backoff_grows_exponentially_without_jitter(self):
        # A draw of 0.0 randomizes nothing away.
        mix = ClientMix(retry_backoff_s=0.01)
        values = [mix.backoff_s(i, _NoJitter()) for i in range(4)]
        assert RETRY_MULTIPLIER == 2.0
        assert values == [0.01, 0.02, 0.04, 0.08]

    def test_backoff_is_capped(self):
        mix = ClientMix(retry_backoff_s=0.1)
        assert MAX_BACKOFF_S == 0.5
        assert mix.backoff_s(3, _NoJitter()) == MAX_BACKOFF_S
        assert mix.backoff_s(9, _NoJitter()) == MAX_BACKOFF_S

    def test_jitter_stays_within_the_jitter_band(self):
        mix = ClientMix(retry_backoff_s=0.1)
        rng = Random(7)
        for attempt in range(3):
            raw = min(0.1 * 2.0 ** attempt, MAX_BACKOFF_S)
            value = mix.backoff_s(attempt, rng)
            assert raw * (1.0 - RETRY_JITTER) <= value <= raw

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            ClientMix().backoff_s(-1, Random(0))


# ------------------------------------------------- transient fault injector


class TestTransientFaults:
    def _disk_with_faults(self, **kwargs) -> DiskManager:
        disk = DiskManager()
        file_id = disk.create_file()
        disk.allocate_page(file_id)
        disk.faults = TransientFaultInjector(**kwargs)
        return disk

    def test_sticky_fault_escalates_to_permanent(self):
        disk = self._disk_with_faults(
            seed=1, read_fault_rate=1.0, read_fault_persistence=1.0
        )
        with pytest.raises(PermanentIOError):
            disk.read_page(0, 0)
        # Initial attempt + read_retry_limit retries all faulted.
        assert disk.counters.io_faults == disk.read_retry_limit + 1
        assert disk.counters.io_failures == 1
        assert disk.counters.disk_reads == disk.read_retry_limit + 1

    def test_one_shot_fault_retries_and_succeeds(self):
        disk = self._disk_with_faults(
            seed=1, read_fault_rate=1.0, read_fault_persistence=0.0
        )
        before_s = disk.clock.elapsed_s
        disk.read_page(0, 0)
        assert disk.counters.io_faults == 1
        assert disk.counters.io_failures == 0
        assert disk.counters.disk_reads == 2  # original + one retry
        # Two page reads plus the retry backoff were charged.
        expected_ms = (
            2 * disk.params.page_read_ms + disk.params.io_retry_backoff_ms
        )
        assert disk.clock.elapsed_s - before_s == pytest.approx(
            expected_ms / 1_000.0
        )

    def test_fault_stream_is_deterministic(self):
        def draws(seed):
            inj = TransientFaultInjector(seed=seed, read_fault_rate=0.3)
            return [inj.read_fails(0, i, 0) for i in range(64)]

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)
        assert any(draws(5))

    def test_storm_windows_tighten_the_effective_timeout(self):
        inj = TransientFaultInjector(
            seed=3, storm_mean_gap_s=0.5, storm_len_s=0.1,
            storm_timeout_s=0.002,
        )
        probes = [i * 0.01 for i in range(400)]
        states = {inj.storm_active(t) for t in probes}
        assert states == {True, False}  # storms start and end
        for t in probes:
            if inj.storm_active(t):
                assert inj.lock_timeout_s(1.0, t) == 0.002
                assert inj.lock_timeout_s(None, t) == 0.002
                assert inj.lock_timeout_s(0.001, t) == 0.001
            else:
                assert inj.lock_timeout_s(1.0, t) == 1.0
                assert inj.lock_timeout_s(None, t) is None
        # Same seed, fresh injector: identical windows.
        again = TransientFaultInjector(
            seed=3, storm_mean_gap_s=0.5, storm_len_s=0.1,
            storm_timeout_s=0.002,
        )
        assert [inj.storm_active(t) for t in probes] == [
            again.storm_active(t) for t in probes
        ]

    def test_storm_times_out_waiter_with_no_base_timeout(self):
        # Base timeout None: waiters would block until deadlock
        # detection.  A permanent storm collapses the effective timeout,
        # so the waiter aborts with LockTimeoutError instead.
        clock, locks, scheduler = make_lock_world(timeout_s=None)
        locks.injector = TransientFaultInjector(
            seed=1, storm_mean_gap_s=1e-6, storm_len_s=1e9,
            storm_timeout_s=0.001,
        )
        clock.charge_s(Bucket.CPU, 1.0)  # move past the storm's start
        outcome = {}

        def holder():
            locks.acquire(1, A, LockMode.EXCLUSIVE)
            scheduler.yield_point()
            clock.charge_s(Bucket.CPU, 0.01)
            scheduler.yield_point()
            locks.release_all(1)

        def waiter():
            try:
                locks.acquire(2, A, LockMode.EXCLUSIVE)
                outcome[2] = "granted"
                locks.release_all(2)
            except LockTimeoutError:
                outcome[2] = "timeout"

        scheduler.spawn("holder", holder)
        scheduler.spawn("waiter", waiter)
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None]
        assert outcome == {2: "timeout"}
        assert locks.waiting_count == 0
        assert locks.lock_count == 0

    def test_arm_and_disarm_are_identity_checked(self):
        derby = fresh_derby()
        locks = LockManager(derby.db.clock, CostParams())
        mine = TransientFaultInjector(seed=1)
        other = TransientFaultInjector(seed=2)
        mine.arm(derby.db, locks)
        other.disarm(derby.db, locks)  # not armed: must not detach mine
        assert (derby.db.disk.faults, locks.injector) == (mine, mine)
        mine.disarm(derby.db, locks)
        assert (derby.db.disk.faults, locks.injector) == (None, None)

    def test_injector_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            TransientFaultInjector(read_fault_rate=1.5)
        with pytest.raises(ValueError):
            TransientFaultInjector(read_fault_persistence=-0.1)
        with pytest.raises(ValueError):
            TransientFaultInjector(storm_mean_gap_s=0.0)


# ------------------------------------------------------------------ budgets


def run_single_scan(derby, **service_kwargs):
    """One session running one governed scan; returns (service, task)."""
    service = QueryService(derby, **service_kwargs)
    session = service.open_session("scanner")
    session.batch_size = 8

    def body():
        session.begin()
        try:
            rows = session.execute(SCAN)
            session.commit()
            return ("done", len(rows))
        except GovernorError as exc:
            session.abort()
            return ("stopped", exc)

    service.spawn(session, body)
    # A second session so yield points actually switch.
    idle = service.open_session("idle")
    service.spawn(idle, lambda: idle.pause())
    tasks = service.run()
    service.close()
    return service, session, tasks[0]


class TestBudgets:
    def test_page_budget_exceeded_aborts_statement(self):
        derby = fresh_derby()
        __, session, task = run_single_scan(
            derby, budget_pages=1
        )
        kind, exc = task.result
        assert kind == "stopped"
        assert isinstance(exc, BudgetExceededError)
        assert session.metrics.over_budget == 1
        assert session.metrics.aborted == 1

    def test_budget_exactly_exhausted_on_final_batch_completes(self):
        # Measure the statement's exact page-fault cost ungoverned ...
        derby = fresh_derby()
        __, session, task = run_single_scan(derby)
        kind, n_rows = task.result
        assert kind == "done"
        pages = session.metrics.meters.client_faults
        assert pages > 1

        # ... a budget of exactly that many pages completes (bounds trip
        # only when strictly exceeded) ...
        derby2 = fresh_derby()
        __, session2, task2 = run_single_scan(
            derby2, budget_pages=pages
        )
        assert task2.result == ("done", n_rows)
        assert session2.metrics.over_budget == 0

        # ... while one page less aborts.
        derby3 = fresh_derby()
        __, session3, task3 = run_single_scan(
            derby3, budget_pages=pages - 1
        )
        assert task3.result[0] == "stopped"
        assert session3.metrics.over_budget == 1

    def test_statement_timeout_uses_the_shared_timeline(self):
        derby = fresh_derby()
        __, session, task = run_single_scan(
            derby, statement_timeout_s=1e-9
        )
        kind, exc = task.result
        assert kind == "stopped"
        assert isinstance(exc, StatementTimeoutError)
        assert isinstance(exc, BudgetExceededError)  # subclass contract
        assert session.metrics.over_budget == 1

    def test_governor_errors_are_not_lock_conflicts(self):
        # Governed stops must never be auto-retried by the lock-conflict
        # retry machinery.
        assert not issubclass(GovernorError, LockConflictError)
        assert issubclass(QueryCancelledError, GovernorError)
        assert issubclass(StatementTimeoutError, BudgetExceededError)

    def test_no_locks_or_handles_leak_after_budget_abort(self):
        derby = fresh_derby()
        service, session, task = run_single_scan(
            derby, budget_pages=1
        )
        assert task.result[0] == "stopped"
        assert service.txm.locks.lock_count == 0
        assert service.txm.locks.waiting_count == 0
        assert service.txm.active_count == 0
        assert session.handles.live_count == 0


# ------------------------------------------------------------- cancellation


class TestCancellation:
    def test_cancelled_scan_stops_charging_io_within_one_batch(self):
        # Regression for the double checkpoint around the fault yield:
        # the flag set while the victim was switched out must be
        # observed *before* the next page RPC is charged.
        batch_size = 8
        derby = fresh_derby(scale=0.0005)
        service = QueryService(derby)
        victim = service.open_session("victim")
        victim.batch_size = batch_size
        observed = {}

        def victim_body():
            victim.begin()
            try:
                victim.execute(SCAN)
                victim.commit()
                return "done"
            except QueryCancelledError:
                victim.abort()
                return "cancelled"

        def canceller_body():
            canceller.pause()  # let the victim get into its scan
            observed["faults_at_cancel"] = (
                victim.metrics.meters.client_faults
            )
            victim.cancel("test cancel")
            return "sent"

        canceller = service.open_session("canceller")
        service.spawn(victim, victim_body)
        service.spawn(canceller, canceller_body)
        tasks = service.run()
        service.close()

        assert [t.result for t in tasks] == ["cancelled", "sent"]
        assert victim.metrics.cancelled == 1
        assert victim.metrics.aborted == 1
        faults_after = (
            victim.metrics.meters.client_faults
            - observed["faults_at_cancel"]
        )
        assert faults_after <= batch_size, (
            f"cancelled scan charged {faults_after} more faults after "
            "the cancel point"
        )
        # And it genuinely stopped early: a full scan costs far more.
        derby2 = fresh_derby(scale=0.0005)
        __, full_session, full_task = run_single_scan(derby2)
        assert full_task.result[0] == "done"
        full_faults = full_session.metrics.meters.client_faults
        assert victim.metrics.meters.client_faults < full_faults / 2

    def test_cancel_interrupts_a_blocked_lock_wait(self):
        derby = fresh_derby()
        service = QueryService(derby)
        holder = service.open_session("holder")
        victim = service.open_session("victim")
        rid = derby.patient_rids[0]

        def holder_body():
            holder.begin()
            holder.write_lock(rid)
            holder.pause()  # victim blocks on rid here
            victim.cancel("kill the waiter")
            holder.commit()
            return "committed"

        def victim_body():
            victim.begin()
            try:
                victim.write_lock(rid)  # blocks; interrupted here
                victim.commit()
                return "granted"
            except QueryCancelledError:
                victim.abort()
                return "cancelled"

        service.spawn(holder, holder_body)
        service.spawn(victim, victim_body)
        tasks = service.run()
        locks = service.txm.locks
        service.close()

        assert [t.result for t in tasks] == ["committed", "cancelled"]
        # Delivered at the wait point, not at a later checkpoint.
        assert service.interrupts == 1
        assert victim.metrics.cancelled == 1
        assert locks.waiting_count == 0
        assert locks.lock_count == 0
        assert service.txm.active_count == 0


# ------------------------------------------------ retries / giving up / mixes


class TestRetries:
    def test_deadlock_victims_with_retries_eventually_commit(self):
        # Two updaters on a two-patient hot set lock in opposite orders:
        # a guaranteed deadlock mill.  With retries enabled every op
        # eventually commits.
        derby = fresh_derby()
        config = MixConfig(
            navigators=0, scanners=0, updaters=2,
            ops_per_client=4, hot_set=2, seed=1, max_retries=5,
        )
        report = WorkloadMixer(derby, config).run()
        assert report.deadlocks >= 1
        assert report.retries >= 1
        assert report.gave_up == 0
        assert report.committed == 8  # every op, despite the deadlocks

    def test_exhausted_retry_budget_becomes_permanent_abort(self):
        derby = fresh_derby()
        config = MixConfig(
            navigators=0, scanners=0, updaters=2,
            ops_per_client=4, hot_set=2, seed=1, max_retries=0,
        )
        mixer = WorkloadMixer(derby, config)
        report = mixer.run()
        assert report.retries == 0
        assert report.gave_up >= 1
        assert report.committed + report.gave_up == 8
        # The aborts really released everything.
        locks = mixer.service.txm.locks
        assert locks.lock_count == 0
        assert locks.waiting_count == 0


class TestAdmission:
    def test_max_active_one_serializes_the_mix(self):
        derby = fresh_derby()
        config = MixConfig.from_clients(
            3, ops_per_client=2, seed=2, max_active=1
        )
        mixer = WorkloadMixer(derby, config)
        report = mixer.run()
        gate = mixer.service.gate
        assert gate is not None
        assert report.committed == 6  # admission never loses work
        assert report.max_queue_depth >= 1
        assert sum(s.metrics.queue_wait_s for s in report.sessions) > 0
        assert gate.queue_depth == 0  # drained
        assert not gate._active
        # Serialized ops cannot deadlock: whole ops hold the only slot.
        assert report.deadlocks == 0

    def test_gate_is_fifo_and_bounds_concurrency(self):
        derby = fresh_derby()
        service = QueryService(derby, max_active=1)
        gate = service.gate
        order = []
        sessions = [service.open_session(f"s{i}") for i in range(3)]

        def body(session):
            def run():
                with session.admitted():
                    assert len(gate._active) <= 1
                    order.append(session.name)
                    session.pause()  # hold the slot across a switch
                return session.name
            return run

        for session in sessions:
            service.spawn(session, body(session))
        service.run()
        service.close()
        assert order == ["s0", "s1", "s2"]  # strict FIFO admission
        assert gate.max_queue_depth == 2
        assert gate.queued_admissions == 2
        assert gate.admissions == 3

    def test_a_session_cancelled_in_the_queue_leaves_it(self):
        derby = fresh_derby()
        service = QueryService(derby, max_active=1)
        gate = service.gate
        holder, victim, last = (
            service.open_session(name) for name in ("holder", "victim", "last")
        )

        def holder_body():
            with holder.admitted():
                holder.pause()  # victim and last queue behind the slot
                victim.cancel("kill the queued session")
            return "done"

        def victim_body():
            try:
                with victim.admitted():
                    return "admitted"
            except QueryCancelledError:
                return "cancelled"

        def last_body():
            with last.admitted():
                return "admitted"

        for session, body in ((holder, holder_body), (victim, victim_body),
                              (last, last_body)):
            service.spawn(session, body)
        tasks = service.run()
        service.close()
        assert [t.result for t in tasks] == ["done", "cancelled", "admitted"]
        assert service.interrupts == 1
        assert gate.queued_admissions == 2
        assert gate.admissions == 2  # the cancelled one never got the slot
        assert gate.queue_depth == 0
        assert not gate._active


# --------------------------------------------------------- mix CSV round-trip


class TestMixCsvRoundTrip:
    def test_governor_columns_round_trip_through_csv(self):
        from repro.stats import mix_to_csv

        derby = fresh_derby()
        config = MixConfig(
            navigators=0, scanners=0, updaters=2,
            ops_per_client=4, hot_set=2, seed=1, max_retries=5,
        )
        report = WorkloadMixer(derby, config).run()
        lines = mix_to_csv(report).splitlines()
        header = lines[0].split(",")
        for column in ("retries", "cancelled", "over_budget",
                       "queue_wait_ms"):
            assert column in header
        parsed = {}
        for line in lines[1:]:
            values = dict(zip(header, line.split(",")))
            parsed[values["session"]] = values
        assert len(parsed) == 2
        for sr in report.sessions:
            row = parsed[sr.name]
            assert int(row["retries"]) == sr.metrics.retries
            assert int(row["cancelled"]) == sr.metrics.cancelled
            assert int(row["over_budget"]) == sr.metrics.over_budget
            assert float(row["queue_wait_ms"]) == pytest.approx(
                sr.metrics.queue_wait_s * 1_000.0, abs=1e-3
            )
        assert sum(int(parsed[s]["retries"]) for s in parsed) >= 1

    def test_stat_rows_round_trip_governor_counters(self):
        from repro.stats import StatsDatabase, to_csv

        stats = StatsDatabase()
        derby = fresh_derby()
        stats.record_experiment(
            algo="mix-updater", cluster="class", elapsed_s=1.0,
            meters=derby.db.counters.snapshot(),
            retries=3, cancelled=1, over_budget=2,
        )
        row = stats.rows()[0]
        assert (row.retries, row.cancelled, row.over_budget) == (3, 1, 2)
        header, line = to_csv([row]).splitlines()
        assert header.endswith("retries,cancelled,over_budget")
        assert line.endswith("3,1,2")
