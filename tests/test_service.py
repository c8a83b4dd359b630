"""Tests for the multi-client query service: cooperative scheduling,
the lock wait/deadlock protocol, sessions and workload mixes."""

from __future__ import annotations

import sys
import threading
from functools import partial
from itertools import repeat
from random import Random

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.dist import ShardedMixConfig
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    PermanentIOError,
    QueryCancelledError,
    ReplicationError,
    ServiceError,
    ShardUnavailableError,
    StaleEpochError,
    WriteConflictError,
)
from repro.service import (
    CooperativeScheduler,
    MixConfig,
    QueryService,
    RetryPolicy,
    SessionMetrics,
    WorkloadMixer,
)
from repro.service.workload import UNAVAILABLE_RETRIES, session_loop
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.rid import Rid
from repro.txn import LockManager, LockMode

A, B, C = Rid(0, 0, 0), Rid(0, 0, 1), Rid(0, 0, 2)


def make_lock_world(timeout_s: float | None = None):
    clock = SimClock()
    locks = LockManager(clock, CostParams(), timeout_s=timeout_s)
    scheduler = CooperativeScheduler(clock, locks)
    return clock, locks, scheduler


class CountingCondition(threading.Condition):
    """A condition that counts the waits it ends."""

    def __init__(self, lock):
        super().__init__(lock)
        self.wakes = 0

    def wait(self, timeout=None):
        woken = super().wait(timeout)
        self.wakes += 1
        return woken


def count_wakes(scheduler: CooperativeScheduler) -> None:
    """Give every spawned task, and ``run``, a counting condition over
    the scheduler's lock."""
    for task in scheduler.tasks:
        task.wake = CountingCondition(scheduler._lock)
    scheduler._cv = CountingCondition(scheduler._lock)


def assert_one_wake_per_hand_off(scheduler, tasks) -> None:
    """Each task woke once per slice it was handed, bar the first when
    its thread found the baton already its own; ``run`` woke once."""
    for task in tasks:
        assert task.switches - 1 <= task.wake.wakes <= task.switches, (
            task.name, task.switches, task.wake.wakes
        )
    assert scheduler._cv.wakes == 1


@pytest.fixture(scope="module")
def tiny_derby():
    """The smallest 1:3 database — enough for real mixes, loads fast."""
    return load_derby(DerbyConfig.db_1to3(scale=0.00001))


def fresh_tiny_derby():
    return load_derby(DerbyConfig.db_1to3(scale=0.00001))


# ---------------------------------------------------------------- scheduler


class TestScheduler:
    def test_round_robin_interleaving_is_deterministic(self):
        def trace_run():
            clock, __, scheduler = make_lock_world()
            trace = []

            def body(name):
                def fn():
                    for i in range(3):
                        trace.append(f"{name}{i}")
                        scheduler.yield_point()
                return fn

            scheduler.spawn("a", body("a"))
            scheduler.spawn("b", body("b"))
            scheduler.run()
            return trace

        first, second = trace_run(), trace_run()
        assert first == second
        assert first[:4] == ["a0", "b0", "a1", "b1"]

    def test_task_errors_are_captured(self):
        __, __, scheduler = make_lock_world()

        def boom():
            raise RuntimeError("boom")

        scheduler.spawn("bad", boom)
        scheduler.spawn("good", lambda: "ok")
        tasks = scheduler.run()
        assert isinstance(tasks[0].error, RuntimeError)
        assert tasks[1].result == "ok"

    @pytest.mark.parametrize("n_tasks, yields", [(2, 1), (8, 5)])
    def test_a_hand_off_wakes_only_the_task_it_picks(self, n_tasks, yields):
        """A ring of tasks that each yield ``yields`` times: every task is
        handed the baton ``yields + 1`` times and wakes once for each."""
        __, __, scheduler = make_lock_world()

        def ring():
            for __ in range(yields):
                scheduler.yield_point()

        for i in range(n_tasks):
            scheduler.spawn(f"t{i}", ring)
        count_wakes(scheduler)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt the session threads often
        try:
            runner = threading.Thread(target=scheduler.run, daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        tasks = scheduler.tasks
        assert [t.error for t in tasks] == [None] * n_tasks
        assert [t.switches for t in tasks] == [yields + 1] * n_tasks
        assert_one_wake_per_hand_off(scheduler, tasks)


# ---------------------------------------------------------------- lock waits


class TestLockWaitProtocol:
    def test_fifo_fairness_shared_does_not_overtake_exclusive(self):
        """T1 holds S; T2 queues X; a later S request (T3) must wait
        behind the X instead of piggybacking on T1's S lock."""
        __, locks, scheduler = make_lock_world()
        order = []

        def t1():
            locks.acquire(1, A, LockMode.SHARED)
            scheduler.yield_point()  # let T2 and T3 queue up
            assert [t for t, __ in locks.waiters(A)] == [2, 3]
            locks.release_all(1)

        def t2():
            locks.acquire(2, A, LockMode.EXCLUSIVE)
            order.append(2)
            locks.release_all(2)

        def t3():
            locks.acquire(3, A, LockMode.SHARED)
            order.append(3)
            locks.release_all(3)

        scheduler.spawn("t1", t1)
        scheduler.spawn("t2", t2)
        scheduler.spawn("t3", t3)
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None, None]
        assert order == [2, 3]

    def test_shared_to_exclusive_upgrade_waits_for_other_readers(self):
        events = []
        __, locks, scheduler = make_lock_world()

        def upgrader():
            locks.acquire(1, A, LockMode.SHARED)
            scheduler.yield_point()  # T2 takes S too
            locks.acquire(1, A, LockMode.EXCLUSIVE)  # waits for T2
            events.append("upgraded")
            assert locks.held(A) == (LockMode.EXCLUSIVE, {1})
            locks.release_all(1)

        def reader():
            locks.acquire(2, A, LockMode.SHARED)
            scheduler.yield_point()  # T1 is now waiting to upgrade
            events.append("reader-release")
            locks.release_all(2)

        scheduler.spawn("up", upgrader)
        scheduler.spawn("rd", reader)
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None]
        assert events == ["reader-release", "upgraded"]

    def test_competing_upgrades_deadlock_aborts_youngest(self):
        """Two S holders both requesting X wait on each other — a
        2-cycle; the youngest (txn 2) must be the victim."""
        outcome = {}
        __, locks, scheduler = make_lock_world()

        def body(txn_id):
            def fn():
                locks.acquire(txn_id, A, LockMode.SHARED)
                scheduler.yield_point()
                try:
                    locks.acquire(txn_id, A, LockMode.EXCLUSIVE)
                    outcome[txn_id] = "upgraded"
                except DeadlockError:
                    outcome[txn_id] = "victim"
                locks.release_all(txn_id)
            return fn

        scheduler.spawn("t1", body(1))
        scheduler.spawn("t2", body(2))
        count_wakes(scheduler)
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None]
        assert outcome == {1: "upgraded", 2: "victim"}
        assert_one_wake_per_hand_off(scheduler, tasks)

    def test_lock_timeout_aborts_waiter(self):
        clock, locks, scheduler = make_lock_world(timeout_s=1.0)
        outcome = {}

        def holder():
            locks.acquire(1, A, LockMode.EXCLUSIVE)
            scheduler.yield_point()           # T2 starts waiting
            clock.charge_s(Bucket.CPU, 5.0)   # simulated time passes
            scheduler.yield_point()           # switch fires the timeout
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
        count_wakes(scheduler)
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None]
        assert outcome == {2: "timeout"}
        assert locks.waiting_count == 0
        assert_one_wake_per_hand_off(scheduler, tasks)

    def test_three_session_deadlock_cycle(self):
        """T1:A T2:B T3:C, then T1->B, T2->C, T3->A: a 3-cycle.  The
        youngest (T3) aborts; the others complete."""
        outcome = {}
        __, locks, scheduler = make_lock_world()
        held = {1: A, 2: B, 3: C}
        wanted = {1: B, 2: C, 3: A}

        def body(txn_id):
            def fn():
                locks.acquire(txn_id, held[txn_id], LockMode.EXCLUSIVE)
                scheduler.yield_point()  # everyone holds their first lock
                try:
                    locks.acquire(txn_id, wanted[txn_id], LockMode.EXCLUSIVE)
                    outcome[txn_id] = "ok"
                except DeadlockError:
                    outcome[txn_id] = "victim"
                locks.release_all(txn_id)
            return fn

        for txn_id in (1, 2, 3):
            scheduler.spawn(f"t{txn_id}", body(txn_id))
        tasks = scheduler.run()
        assert [t.error for t in tasks] == [None, None, None]
        assert outcome == {1: "ok", 2: "ok", 3: "victim"}
        assert locks.lock_count == 0
        assert locks.waiting_count == 0


# ---------------------------------------------------------------- service


class TestQueryService:
    def test_two_session_deadlock_youngest_aborts_survivor_commits(
        self, tiny_derby
    ):
        derby = tiny_derby
        derby.start_cold_run()
        service = QueryService(derby)
        alice = service.open_session("alice")
        bob = service.open_session("bob")
        rid_a, rid_b = derby.patient_rids[0], derby.patient_rids[1]
        outcome = {}

        def make_body(session, first, second, marker_age):
            def body():
                session.begin()
                session.write_lock(first)
                session.pause()
                try:
                    session.write_lock(second)
                    session.update_scalar(first, "age", marker_age)
                    session.update_scalar(second, "age", marker_age)
                    session.commit()
                    outcome[session.name] = "committed"
                except DeadlockError:
                    session.abort()
                    outcome[session.name] = "victim"
            return body

        service.spawn(alice, make_body(alice, rid_a, rid_b, 41))
        service.spawn(bob, make_body(bob, rid_b, rid_a, 42))
        tasks = service.run()
        service.close()

        assert [t.error for t in tasks] == [None, None]
        # bob began second -> youngest -> victim; alice commits.
        assert outcome == {"alice": "committed", "bob": "victim"}
        om = derby.db.manager
        assert om.get_attr_at(rid_a, "age") == 41
        assert om.get_attr_at(rid_b, "age") == 41
        assert service.txm.committed == 1
        assert service.txm.aborted == 1
        assert service.txm.locks.lock_count == 0

    def test_close_restores_single_client_configuration(self, tiny_derby):
        derby = tiny_derby
        base_cache = derby.db.system.client_cache
        base_handles = derby.db.handles
        service = QueryService(derby, server_cache_pages=4)
        session = service.open_session("s")
        service.spawn(session, lambda: session.execute(
            "select count(p) from p in Patients where p.mrn < 10"
        ))
        service.run()
        service.close()
        assert derby.db.system.client_cache is base_cache
        assert derby.db.handles is base_handles
        assert derby.db.manager.handles is base_handles
        assert derby.db.system.on_fault is None

    def test_sessions_have_private_client_tiers(self, tiny_derby):
        derby = tiny_derby
        derby.start_cold_run()
        service = QueryService(derby)
        s1 = service.open_session("one")
        s2 = service.open_session("two")
        query = "select count(p) from p in Providers where p.upin < 100"
        service.spawn(s1, lambda: s1.execute(query))
        service.spawn(s2, lambda: s2.execute(query))
        service.run()
        service.close()
        assert s1.cache is not s2.cache
        # Both sessions did real page traffic through their own tier.
        assert s1.metrics.meters.client_faults > 0
        assert s2.metrics.meters.client_faults > 0
        # The second reader of a page hits the *shared* server cache.
        assert (
            s1.metrics.meters.server_hits + s2.metrics.meters.server_hits > 0
        )


# ---------------------------------------------------------------- workload


class TestWorkloadMixer:
    def test_mix_runs_and_records_stats(self, tiny_derby):
        from repro.stats import StatsDatabase

        stats = StatsDatabase()
        config = MixConfig.from_clients(3, ops_per_client=2, seed=3)
        report = WorkloadMixer(tiny_derby, config, stats=stats).run()
        assert report.committed == 3 * 2
        assert len(stats) == 3
        rows = stats.rows()
        assert {r.algo for r in rows} == {
            "mix-navigator", "mix-scanner", "mix-updater"
        }
        assert all(r.elapsed_s > 0 for r in rows)
        text = str(report.table())
        assert "aggregate" in text and "navigator0" in text

    def test_mix_is_deterministic_across_fresh_databases(self):
        config = MixConfig.from_clients(4, ops_per_client=2, seed=9)
        r1 = WorkloadMixer(fresh_tiny_derby(), config).run()
        r2 = WorkloadMixer(fresh_tiny_derby(), config).run()
        assert r1.elapsed_s == pytest.approx(r2.elapsed_s)
        assert r1.committed == r2.committed
        assert r1.aborted == r2.aborted
        assert r1.deadlocks == r2.deadlocks
        assert [s.metrics.latencies_s for s in r1.sessions] == [
            s.metrics.latencies_s for s in r2.sessions
        ]

    def test_from_clients_deals_round_robin(self):
        config = MixConfig.from_clients(8)
        assert (config.navigators, config.scanners, config.updaters) == (
            3, 3, 2
        )
        assert config.clients == [
            ("navigator", 3), ("scanner", 3), ("updater", 2)
        ]
        sharded = ShardedMixConfig.from_clients(5, seed=4)
        assert (sharded.scanners, sharded.updaters, sharded.seed) == (3, 2, 4)
        assert sharded.clients == [("scanner", 3), ("updater", 2)]
        # An override wins over the dealt count.
        assert MixConfig.from_clients(6, updaters=3).total_clients == 7
        assert ShardedMixConfig.from_clients(2, scanners=0).total_clients == 1
        for cls in (MixConfig, ShardedMixConfig):
            with pytest.raises(ServiceError, match="at least one client"):
                cls.from_clients(0)

    def test_unknown_update_values_is_rejected(self):
        """``"keyd"`` used to run the ``"age"`` read-modify-write
        silently — and ``bench_mvcc``'s cross-isolation digest gate
        rests on ``"keyed"`` meaning keyed."""
        with pytest.raises(ServiceError, match="update_values"):
            MixConfig(update_values="keyd")
        with pytest.raises(ServiceError, match="update_values"):
            MixConfig.from_clients(3, update_values="keyd")
        assert MixConfig(update_values="keyed").update_values == "keyed"


# ---------------------------------------------------------------- the loop


class Script:
    """A zero-argument op that raises its scripted outcomes in turn and
    succeeds once they run out; ``calls`` counts attempts."""

    def __init__(self, *outcomes: BaseException, clock=None, cost_s=0.0):
        self.outcomes = iter(outcomes)
        self.calls = 0
        self.clock = clock
        self.cost_s = cost_s

    def __call__(self) -> None:
        self.calls += 1
        if self.clock is not None:
            self.clock.charge_s(Bucket.CPU, self.cost_s)
        exc = next(self.outcomes, None)
        if exc is not None:
            raise exc


def always(exc_type) -> Script:
    op = Script()
    op.outcomes = repeat(exc_type("scripted"))
    return op


def drive(*ops, max_retries=2, rng=None, clock=None):
    """Run ``session_loop`` over scripted ops on a bare scheduler (no
    database, no other task: every yield is a no-op)."""
    clock = clock or SimClock()
    metrics = SessionMetrics()
    session_loop(
        ops, metrics, RetryPolicy(max_retries=max_retries), rng or Random(1),
        clock, CooperativeScheduler(clock),
    )
    return metrics, clock


class TestSessionLoop:
    def test_conflicts_are_retried_counted_by_kind_then_succeed(self):
        clock = SimClock()
        op = Script(
            DeadlockError("d"), LockTimeoutError("t"), WriteConflictError("w"),
            clock=clock, cost_s=0.25,
        )
        metrics, __ = drive(op, max_retries=3, clock=clock)
        assert op.calls == 4
        assert (metrics.deadlocks, metrics.timeouts, metrics.conflicts) == (
            1, 1, 1
        )
        assert (metrics.retries, metrics.gave_up) == (3, 0)
        backoff_s = clock.breakdown()[Bucket.BACKOFF.value]
        assert backoff_s > 0
        # One latency, submit -> success: four attempts and three sleeps.
        assert metrics.latencies_s == [pytest.approx(4 * 0.25 + backoff_s)]
        # The loop never counts aborts; that is the op's business.
        assert (metrics.aborted, metrics.committed) == (0, 0)

    def test_backoff_draws_once_per_retry_from_the_session_stream(self):
        """The stream order the digests pin: one ``rng.random()`` per
        retry and nothing else."""
        policy = RetryPolicy(max_retries=2)
        expect = Random(7)
        sleeps = [policy.backoff_s(attempt, expect) for attempt in (0, 1)]
        rng = Random(7)
        __, clock = drive(
            Script(DeadlockError("d"), DeadlockError("d")), rng=rng
        )
        assert clock.breakdown() == {Bucket.BACKOFF.value: sum(sleeps)}
        assert rng.random() == expect.random()

    def test_retry_budget_exhausts_into_exactly_one_gave_up(self):
        stuck, after = always(DeadlockError), Script()
        metrics, __ = drive(stuck, after, max_retries=2)
        assert stuck.calls == 3  # the attempt and two retries
        assert (metrics.deadlocks, metrics.retries, metrics.gave_up) == (
            3, 2, 1
        )
        # The client moves on to its next op; only that one has a latency.
        assert after.calls == 1
        assert len(metrics.latencies_s) == 1

    def test_unavailable_has_its_own_larger_allowance(self):
        down = ShardUnavailableError
        # Conflict retries are not used up by unavailable attempts ...
        op = Script(
            down("u"), down("u"), down("u"), DeadlockError("d"),
            down("u"), DeadlockError("d"),
        )
        metrics, __ = drive(op, max_retries=2)
        assert op.calls == 7
        assert (metrics.unavailable, metrics.deadlocks) == (4, 2)
        assert (metrics.retries, metrics.gave_up) == (6, 0)
        assert len(metrics.latencies_s) == 1
        # ... and the unavailable allowance is not shortened by a small
        # ``max_retries``: it is the constant, then one ``gave_up``.
        dead = always(down)
        metrics, __ = drive(dead, max_retries=1)
        assert dead.calls == UNAVAILABLE_RETRIES + 1 == 13
        assert (metrics.unavailable, metrics.retries, metrics.gave_up) == (
            13, 12, 1
        )
        assert metrics.latencies_s == []

    def test_permanent_io_and_cancellation_are_not_retried(self):
        broken = Script(PermanentIOError("page is gone"))
        cancelled = Script(QueryCancelledError("stop"))
        metrics, clock = drive(broken, cancelled, Script())
        assert (broken.calls, cancelled.calls) == (1, 1)
        assert (metrics.io_failures, metrics.gave_up) == (1, 1)
        # The governor counts its own interventions; the loop only stops.
        assert (metrics.cancelled, metrics.retries) == (0, 0)
        assert len(metrics.latencies_s) == 1  # the third op's
        assert Bucket.BACKOFF.value not in clock.breakdown()

    @pytest.mark.parametrize(
        "exc_type", [StaleEpochError, ReplicationError, KeyError]
    )
    def test_anything_else_propagates_and_ends_the_session(self, exc_type):
        first, second = Script(exc_type("not transient")), Script()
        clock = SimClock()
        scheduler = CooperativeScheduler(clock)
        metrics = SessionMetrics()
        scheduler.spawn("client", partial(
            session_loop, [first, second], metrics, RetryPolicy(),
            Random(1), clock, scheduler,
        ))
        (task,) = scheduler.run()
        assert isinstance(task.error, exc_type)
        assert (first.calls, second.calls) == (1, 0)
        assert (metrics.retries, metrics.gave_up) == (0, 0)

    def test_an_op_that_raises_in_a_transaction_leaves_nothing_open(
        self, tiny_derby
    ):
        """What lets the loop retry without cleaning up: the bracket
        every service op runs in aborts on any exception."""
        derby = tiny_derby
        derby.start_cold_run()
        service = QueryService(derby)
        session = service.open_session("s")

        def op() -> None:
            with session.transaction():
                session.write_lock(derby.patient_rids[0])
                session.update_scalar(derby.patient_rids[0], "age", 77)
                raise DeadlockError("scripted victim")

        service.spawn(session, partial(
            session_loop, [op], session.metrics, RetryPolicy(max_retries=1),
            Random(1), derby.db.clock, service.scheduler,
        ))
        tasks = service.run()
        service.close()
        assert [t.error for t in tasks] == [None]
        assert session.txn.state == "aborted"
        assert service.txm.active_count == 0
        assert service.txm.locks.lock_count == 0
        # Session.abort counted both attempts; the loop counted the rest.
        m = session.metrics
        assert (m.aborted, m.deadlocks, m.retries, m.gave_up) == (2, 2, 1, 1)


# ---------------------------------------------------------------- CLI


class TestMixCli:
    def test_mix_command_end_to_end(self, capsys):
        from repro.cli import main

        assert main([
            "mix", "--db", "1to3", "--scale", "0.00001",
            "--clients", "2", "--ops", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "stats database: 2 Stat row(s) recorded" in out
