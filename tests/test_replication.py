"""Tests for per-shard replication: WAL shipping, the failure
detector, fenced failover, and the seeded failover chaos harness."""

from __future__ import annotations

import pytest

from repro.derby import DerbyConfig
from repro.dist import (
    FAILOVER,
    REPLICATION_KILL_POINTS,
    ReplicationInjector,
    ShardedMixConfig,
    ShardedWorkload,
    load_sharded,
)
from repro.dist.chaos import kill_under_load, settle_kill
from repro.dist.failure import GRACE_S, HEARTBEAT_INTERVAL_S, LEASE_S
from repro.errors import (
    QueryCancelledError,
    RecoveryError,
    ReplicationError,
    ShardUnavailableError,
    StaleEpochError,
)
from repro.recovery import TransientFaultInjector, run_case, run_suite
from repro.simtime import Bucket
from repro.txn.log import COMMIT_RECORD_BYTES

from .chaos_pins import assert_pinned

TINY = 0.00001  # 10 providers / 30 patients


def make_replicated(n_shards=2, **kwargs):
    return load_sharded(
        DerbyConfig.db_1to3(scale=TINY), n_shards, replicas=1, **kwargs
    )


def _patient_on(cluster, shard_id, slot=0):
    return cluster.nodes[shard_id].derby.patient_rids[slot]


def _age(node, rid):
    return int(node.db.manager.get_attr_at(rid, "age"))


def _commit_age(cluster, shard_id, rid, value):
    dtx = cluster.begin()
    dtx.update_scalar(shard_id, rid, "age", value)
    dtx.commit()


def _advance(cluster, seconds):
    cluster.clock.charge_s(Bucket.BACKOFF, seconds)


# -- ship/ack plumbing ---------------------------------------------------


def test_sync_link_ships_inside_the_commit():
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    link = cluster.links[0]
    before = link.ship_msgs
    _commit_age(cluster, 0, rid, 41)
    # Sync: the flush does not return (and the client is not acked)
    # until the replica durably holds the records.
    assert link.ship_msgs > before
    assert link.lag_records() == 0
    assert link.acked_lsn == cluster.nodes[0].txm.log.durable_lsn
    # Continuous redo applied the committed write at the standby.
    assert _age(cluster.standbys[0], rid) == 41


def test_async_link_lags_within_bound_and_drains_on_pump():
    cluster = make_replicated(ship_mode="async", max_lag_records=1000)
    rid = _patient_on(cluster, 0)
    for value in (50, 51, 52):
        _commit_age(cluster, 0, rid, value)
    link = cluster.links[0]
    standby_wal = cluster.standbys[0].txm.log
    assert 0 < link.lag_records() <= 1000
    assert standby_wal.durable_lsn < cluster.nodes[0].txm.log.durable_lsn
    cluster.tick()  # the pump drains pending records
    assert link.lag_records() == 0
    assert standby_wal.durable_lsn == cluster.nodes[0].txm.log.durable_lsn
    assert _age(cluster.standbys[0], rid) == 52


def test_async_link_ships_eagerly_when_loss_bound_is_due():
    cluster = make_replicated(ship_mode="async", max_lag_records=2)
    rid = _patient_on(cluster, 0)
    for value in range(60, 70):
        _commit_age(cluster, 0, rid, value)
    # Without a single tick, the flush hook itself must have shipped to
    # keep the acknowledged-loss window within the configured bound.
    assert cluster.links[0].lag_records() <= 2


def test_ship_metering_is_deterministic():
    def meter():
        cluster = make_replicated()
        config = ShardedMixConfig(
            scanners=1, updaters=2, ops_per_client=3, seed=11
        )
        report = ShardedWorkload(cluster, config).run()
        link = cluster.links[0]
        return (
            report.committed,
            round(report.elapsed_s, 9),
            link.ship_msgs,
            link.shipped_records,
            link.shipped_bytes,
            link.acks,
            round(link.ack_wait_s, 9),
        )

    first, second = meter(), meter()
    assert first == second
    assert first[2] > 0  # something actually shipped


def test_replica_must_match_primary_log_position():
    cluster = make_replicated()
    # Mutating the primary after links are attached is fine; building a
    # *new* link against a diverged replica is not.
    from repro.dist.replication import ReplicaLink

    rid = _patient_on(cluster, 0)
    _commit_age(cluster, 0, rid, 45)
    with pytest.raises(ReplicationError):
        ReplicaLink(
            cluster, 0, cluster.nodes[0], cluster.standbys[1], mode="sync"
        )


# -- failure detector ----------------------------------------------------


def test_detector_walks_alive_suspect_dead():
    cluster = make_replicated()
    det = cluster.detector
    assert det.health[0].state == "alive"
    cluster.kill_primary(0)
    assert det.health[0].state == "alive"  # silence not yet observed
    _advance(cluster, LEASE_S + HEARTBEAT_INTERVAL_S)
    assert det.pump() == []
    assert det.health[0].state == "suspect"
    assert det.health[1].state == "alive"  # the healthy shard keeps beating
    _advance(cluster, GRACE_S + HEARTBEAT_INTERVAL_S)
    assert det.pump() == [0]
    assert det.health[0].state == "dead"
    assert det.pump() == []  # dead is declared exactly once


def test_detection_window_is_bounded():
    cluster = make_replicated()
    det = cluster.detector
    killed_at = cluster.clock.elapsed_s
    cluster.kill_primary(0)
    # March the timeline forward one heartbeat at a time until the
    # detector declares death; the window is lease + grace, give or
    # take one heartbeat interval on either side.
    for __ in range(100):
        _advance(cluster, HEARTBEAT_INTERVAL_S)
        if det.pump():
            break
    window = cluster.clock.elapsed_s - killed_at
    assert window <= LEASE_S + GRACE_S + 2 * HEARTBEAT_INTERVAL_S
    assert window >= LEASE_S + GRACE_S - HEARTBEAT_INTERVAL_S


def test_the_lease_covers_a_heartbeat():
    # Otherwise every renewal would arrive expired.
    assert HEARTBEAT_INTERVAL_S <= LEASE_S


# -- fenced failover -----------------------------------------------------


def _settle(cluster, seconds=0.3):
    _advance(cluster, seconds)
    cluster.tick()


def test_failover_promotes_standby_and_serves_writes():
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    _commit_age(cluster, 0, rid, 71)
    standby = cluster.standbys[0]
    cluster.kill_primary(0)
    with pytest.raises(ShardUnavailableError):
        _commit_age(cluster, 0, rid, 72)
    _settle(cluster)
    # The standby is now the serving primary, under a bumped epoch.
    assert cluster.route.node_for(0) is standby
    assert standby.role == "primary"
    assert cluster.route.epoch_of(0) == 1
    assert cluster.route.failovers[0] == 1
    assert _age(standby, rid) == 71  # the shipped write survived
    _commit_age(cluster, 0, rid, 73)  # and the shard serves again
    assert _age(standby, rid) == 73
    assert cluster.shard_unavailable_s(0) > 0
    assert cluster.shard_unavailable_s(1) == 0


def test_an_abort_on_a_promoted_primary_keeps_committed_writes():
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    _commit_age(cluster, 0, rid, 71)
    _commit_age(cluster, 0, rid, 72)
    standby = cluster.standbys[0]
    cluster.kill_primary(0)
    _settle(cluster)
    dtx = cluster.begin()
    dtx.update_scalar(0, rid, "age", 90)
    dtx.abort()
    assert _age(standby, rid) == 72


def test_a_promoted_primary_reuses_no_transaction_id():
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    _commit_age(cluster, 0, rid, 71)
    standby = cluster.standbys[0]
    cluster.kill_primary(0)
    _settle(cluster)
    named = {record.txn_id for record in standby.txm.log.records}
    txn = standby.txm.begin()
    assert txn.txn_id > max(named)
    txn.abort()


def test_epoch_record_is_durable_before_promotion():
    cluster = make_replicated()
    cluster.kill_primary(0)
    _settle(cluster)
    kinds = [r.kind for r in cluster.decision_log.durable_records()]
    assert "epoch" in kinds
    epoch_atts = [
        r.att
        for r in cluster.decision_log.durable_records()
        if r.kind == "epoch"
    ]
    assert ((0, 1),) in epoch_atts
    # Epoch records must not pollute 2PC decision scanning.
    assert cluster.decided_branches() == set()


def test_zombie_primary_is_fenced_by_epoch():
    cluster = make_replicated()
    old = cluster.nodes[0]
    rid = _patient_on(cluster, 0)
    cluster.kill_primary(0, partition=True)  # process alive, unreachable
    _settle(cluster)
    assert cluster.route.epoch_of(0) == 1
    # The partitioned old primary heals and tries to serve — its stale
    # epoch makes every coordinator call refuse it.
    old.down = False  # the partition heals; nothing is rewired
    assert old.role == "primary" and old.epoch == 0
    with pytest.raises(StaleEpochError):
        cluster.call(old, lambda: _age(old, rid))
    with pytest.raises(StaleEpochError):
        cluster.fanout([(old, lambda: None)])
    # The promoted node serves normally.
    _commit_age(cluster, 0, rid, 74)


@pytest.mark.parametrize("decision", ["commit", "abort"])
def test_promotion_resolves_in_doubt_branches(decision):
    """A branch prepared on the dead primary (and shipped) resolves at
    promotion against the coordinator's decision log — both ways."""
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    preload = _age(cluster.nodes[0], rid)
    dtx = cluster.begin()
    dtx.update_scalar(0, rid, "age", 99)
    txn = dtx.branches[0]
    # Force-log the vote (the flush ships update + prepare records to
    # the standby), then stop: the branch is now in doubt.
    dtx._make_prepare(0)()
    if decision == "commit":
        cluster.decision_log.append(
            dtx.global_id,
            "commit",
            COMMIT_RECORD_BYTES + 8,
            att=((0, txn.txn_id),),
        )
        cluster.decision_log.flush()
    cluster.kill_primary(0)
    _settle(cluster)
    promoted = cluster.route.node_for(0)
    assert promoted.epoch == 1
    expected = 99 if decision == "commit" else preload
    assert _age(promoted, rid) == expected
    assert promoted.txm.active_count == 0  # nothing left in doubt


#: Ship-point kill -> is the interrupted commit durable on the promoted
#: standby?  The replica holds the records once the ship applied them
#: (mid-ship and after), and never sees them if the primary died first.
_SHIP_POINT_SURVIVES = {
    "repl-before-ship": False,
    "repl-mid-ship": True,
    "repl-after-ship": True,
}


@pytest.mark.parametrize("point", REPLICATION_KILL_POINTS[:3])
def test_kill_at_every_ship_point(point):
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    preload = _age(cluster.nodes[0], rid)
    injector = ReplicationInjector(point)
    injector.arm(cluster)
    with pytest.raises(ShardUnavailableError):
        _commit_age(cluster, 0, rid, 88)
    assert injector.fired
    assert cluster.kills == 1
    _settle(cluster)
    promoted = cluster.route.node_for(0)
    assert promoted.role == "primary" and not promoted.down
    expected = 88 if _SHIP_POINT_SURVIVES[point] else preload
    assert _age(promoted, rid) == expected
    # The shard serves again; a clean retry lands either way.
    _commit_age(cluster, 0, rid, 89)
    assert _age(promoted, rid) == 89


@pytest.mark.parametrize("point", REPLICATION_KILL_POINTS[3:])
def test_kill_at_every_promote_point_is_a_double_failure(point):
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    injector = ReplicationInjector(point)
    injector.arm(cluster)
    cluster.kill_primary(0)
    _settle(cluster)
    assert injector.fired
    # Both copies are gone: no routing changed, the shard fails fast.
    assert cluster.route.failovers[0] == 0
    assert cluster.route.node_for(0).down
    with pytest.raises(ShardUnavailableError):
        _commit_age(cluster, 0, rid, 90)
    if point == "repl-mid-promote":
        # The fence was already durable when the standby died: the
        # epoch is burned even though no promotion happened.
        kinds = [r.kind for r in cluster.decision_log.durable_records()]
        assert "epoch" in kinds
    # The healthy shard is untouched.
    _commit_age(cluster, 1, _patient_on(cluster, 1), 91)


def test_injector_rejects_unknown_point():
    with pytest.raises(RecoveryError):
        ReplicationInjector("repl-nonsense")
    with pytest.raises(RecoveryError):
        ReplicationInjector("repl-mid-ship", occurrence=0)


# -- loss windows --------------------------------------------------------


def test_sync_kill_reports_zero_acked_loss():
    cluster = make_replicated()
    rid = _patient_on(cluster, 0)
    _commit_age(cluster, 0, rid, 61)
    cluster.kill_primary(0)
    assert cluster.loss_windows[0] == 0


def test_async_kill_reports_bounded_loss_window():
    cluster = make_replicated(ship_mode="async", max_lag_records=1000)
    rid = _patient_on(cluster, 0)
    for value in (62, 63, 64):
        _commit_age(cluster, 0, rid, value)
    lag = cluster.links[0].lag_records()
    assert lag > 0
    cluster.kill_primary(0)
    # Every lagging record was acked to some client: all of it is loss.
    assert cluster.loss_windows[0] == lag


# -- retries and the workload --------------------------------------------


def _timed_kill(cluster, config, at_s):
    """A timed kill of shard 0's primary through the one driver."""
    return kill_under_load(cluster, config, "timed", "timed", 0, at_s, 1)


def test_workload_rides_through_a_primary_kill():
    cluster = make_replicated(n_shards=2)
    config = ShardedMixConfig(
        scanners=1, updaters=2, ops_per_client=4, seed=7
    )
    run = _timed_kill(cluster, config, 0.05)
    report = run.report
    assert cluster.kills == 1
    assert cluster.route.failovers[0] == 1
    assert report.unavailable > 0  # sessions saw the outage...
    assert report.gave_up == 0  # ...and retried through it
    assert report.committed > 0
    # Acked writes survived the failover, and nothing else broke.
    __, __, evidence = settle_kill(run, "sync")
    assert FAILOVER.check(evidence) == []


@pytest.mark.parametrize("ship_mode", ["sync", "async"])
def test_a_timed_kill_through_the_driver_holds_every_failover_invariant(
    ship_mode,
):
    cluster = make_replicated(
        n_shards=2, ship_mode=ship_mode, max_lag_records=4
    )
    config = ShardedMixConfig(
        scanners=1, updaters=3, ops_per_client=5, seed=3, hot_set=6
    )
    run = _timed_kill(cluster, config, 0.08)
    row, __, evidence = settle_kill(run, ship_mode)
    assert row["Killed"] and row["FailedOver"]
    assert FAILOVER.check(evidence) == []


def test_a_reused_transaction_id_is_named():
    cluster = make_replicated(n_shards=2)
    config = ShardedMixConfig(
        scanners=0, updaters=2, ops_per_client=3, seed=7
    )
    __, __, evidence = settle_kill(_timed_kill(cluster, config, 0.05), "sync")
    assert FAILOVER.check(evidence) == []
    promoted = cluster.route.node_for(0)
    reused = max(r.txn_id for r in promoted.txm.log.records)
    promoted.txm._next_txn_id = reused  # as if restart lost the high-water
    promoted.txm.begin().abort()
    assert FAILOVER.check(evidence) == [
        f"shard 0: transaction id {reused} begun 2 times"
    ]


def test_double_failure_fails_fast_with_clean_accounting():
    cluster = make_replicated(n_shards=2)
    cluster.schedule_kill(0, at_s=0.02)
    injector = ReplicationInjector("repl-mid-promote")
    injector.arm(cluster)
    config = ShardedMixConfig(
        scanners=0,
        updaters=2,
        ops_per_client=3,
        seed=13,
    )
    report = ShardedWorkload(cluster, config).run()
    assert injector.fired
    assert cluster.route.failovers[0] == 0
    # Ops homed on the dead shard exhausted the unavailable allowance
    # and gave up; nothing hung, nothing leaked.
    assert report.unavailable > 0
    assert report.gave_up > 0
    assert cluster.lock_table.lock_count == 0
    assert cluster.active_count == 0
    for node in cluster.all_nodes():
        if not node.down:
            assert node.txm.active_count == 0


# -- chaos harness -------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_failover_chaos_sync_cases_pass(seed):
    result = run_case(FAILOVER, seed, "sync")
    assert result.ok, result.failures
    assert result.row["LossWin"] == 0


@pytest.mark.parametrize("seed", [100, 104])
def test_failover_chaos_async_cases_pass(seed):
    result = run_case(FAILOVER, seed, "async")
    assert result.ok, result.failures


@pytest.mark.parametrize("ship_mode", ["sync", "async"])
def test_failover_chaos_pinned_digests_do_not_move(ship_mode):
    assert_pinned(
        f"failover-{ship_mode}",
        {
            str(s): FAILOVER.run_once(s, ship_mode)
            for s in range(25)
        },
    )


def test_failover_suite_runs_every_seed_in_both_ship_modes():
    cases = run_suite(FAILOVER, 1)
    assert [c.variant for c in cases] == [("sync",), ("async",)]
    assert [c.row["Mode"] for c in cases] == ["sync", "async"]
    assert [c.seed for c in cases] == [0, 0]


# -- satellite regressions -----------------------------------------------


def test_for_node_replica_streams_are_independent():
    """Primary and replica of the same shard must draw independent
    fault schedules (regression: both used to share the node stream)."""
    base = TransientFaultInjector(seed=3, read_fault_rate=0.5)
    primary = base.for_node(0)
    replica = base.for_node(0, replica=1)
    again = base.for_node(0, replica=1)
    draws_p = [primary.read_fails(0, p, 0) for p in range(64)]
    draws_r = [replica.read_fails(0, p, 0) for p in range(64)]
    draws_again = [again.read_fails(0, p, 0) for p in range(64)]
    assert draws_r == draws_again  # same (seed, node, replica) -> same
    assert draws_p != draws_r  # primary and standby diverge


def test_cancelled_exchange_closes_remote_cursors():
    """Governed cancellation abandoning a partially-drained exchange
    must close every shard cursor (regression: they leaked open)."""
    from repro.dist import Coordinator
    from repro.dist.exchange import ExchangeOperator

    cluster = load_sharded(DerbyConfig.db_1to3(scale=0.0002), 3)
    coordinator = Coordinator(cluster)
    pulls = 0

    def cancel_after_two():
        nonlocal pulls
        pulls += 1
        if pulls >= 2:
            raise QueryCancelledError("governor pulled the plug")

    plan = coordinator.plan("select p.age from p in Patients where p.num > 0")
    cursor = coordinator._open_exchange(plan, cancel_after_two, 4)
    exchange = cursor.root
    assert isinstance(exchange, ExchangeOperator)
    with pytest.raises(QueryCancelledError):
        cursor.drain()
    assert exchange._closed
    for __, shard_cursor in exchange.streams:
        assert shard_cursor.root._closed
