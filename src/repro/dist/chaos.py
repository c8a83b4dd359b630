"""The ``2pc`` and ``failover`` chaos suites over sharded clusters.

Both are :class:`~repro.recovery.harness.Suite` instances — a seeded
case generator plus invariants, double-run by the shared harness — and
share their cluster-level evidence gathering (hot homes, durable ages,
decided transactions) and two invariants (:func:`_cluster_leaks`,
:func:`_last_writer`).

**2pc** — crash the *cluster* mid-protocol, recover, verify.  Each case
draws a shard count, partition scheme, workload shape and a
:class:`~repro.dist.twopc.TwoPCInjector` crash point from one seeded
stream, runs the mix until the injector kills the cluster, then runs
:meth:`~repro.dist.cluster.ShardedCluster.crash` /
:meth:`~repro.dist.cluster.ShardedCluster.recover` and asserts the
atomic-commitment contract **across all shards**:

* **committed-visible** — every write acked to a client, *plus* every
  write of a distributed transaction whose commit decision record went
  durable before the crash (decided-but-unacked: the client never heard
  the commit, but the decision is the commit point), is in the durable
  state after recovery;
* **uncommitted-gone** — a hot patient's durable age is its preload
  value or a value written by an acked/decided transaction: no branch
  of an undecided distributed transaction survives, even a branch that
  voted yes (presumed abort);
* **nothing leaks** — after recovery no shard holds locks, waiters or
  open transactions, and no distributed transaction is registered;
* **determinism** — re-running the same seed on a fresh cluster crashes
  at the same point and reproduces an identical digest.

A drawn occurrence can exceed the number of times the run reaches the
crash point; those cases simply complete crash-free and are verified
against the same oracle (with an empty decided-but-unacked set).

**failover** — instead of the cluster, each case kills one shard's
*primary*: at a drawn simulated time, at a drawn WAL-ship protocol
point, or as a double failure (primary killed, then the replica killed
mid promotion).  Every seed runs once per WAL-ship mode (the suite's
variants, sync then async).  The failure detector and fenced failover
run, and the replicated atomic-commitment contract must hold:

* sync mode: *zero acknowledged loss* — the post-failover durable
  state matches exactly the last-writer oracle over every acked write
  plus every decided- or replica-committed-but-unacked write;
* async mode: losses are confined to shards whose link reported a
  non-zero loss window (bounded by ``max_lag_records``), and every
  durable value was legally written (no dirty write ever survives);
* fenced promotion (a promoted node serves, under the route's epoch,
  with recorded downtime), zero leaks, and digest-identical re-runs.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace

from repro.derby import DerbyConfig
from repro.dist.cluster import ShardedCluster, load_sharded
from repro.dist.failure import HEARTBEAT_INTERVAL_S
from repro.dist.replication import (
    REPLICATION_KILL_POINTS,
    ReplicationInjector,
)
from repro.dist.twopc import TWOPC_CRASH_POINTS, TwoPCInjector
from repro.dist.workload import ShardedMixConfig, ShardedWorkload
from repro.recovery.harness import Suite, check_last_writer
from repro.simtime import Bucket

_BACKOFF = Bucket.BACKOFF

#: Scale of the per-case database: ~30 patients, loads in milliseconds.
_SCALE = 0.00001


# -- shared evidence gathering and invariants ----------------------------


def _hot_homes(
    cluster: ShardedCluster, config: ShardedMixConfig
) -> list[tuple[int, object]]:
    """``(shard, rid)`` of every hot patient the updaters can touch."""
    part = cluster.part
    hot = min(config.hot_set, len(part.patient_shard))
    homes = []
    for idx in range(hot):
        sid, local = part.patient_home(idx)
        homes.append((sid, cluster.nodes[sid].derby.patient_rids[local]))
    return homes


def _durable_ages(
    cluster: ShardedCluster, hot_homes: list[tuple[int, object]]
) -> dict[tuple[int, object], int]:
    """Age per hot home, read at the shard's serving node; homes whose
    shard has no serving node are unreadable and absent."""
    return {
        (sid, rid): int(
            cluster.nodes[sid].db.manager.get_attr_at(rid, "age")
        )
        for sid, rid in hot_homes
        if not cluster.nodes[sid].down
    }


def _decided_globals(cluster: ShardedCluster) -> set[int]:
    """Distributed transactions with a durable commit decision: their
    commit *won* even if no client heard the ack."""
    return {
        record.txn_id
        for record in cluster.decision_log.durable_records()
        if record.kind == "commit"
    }


def _cluster_leaks(ev) -> list[str]:
    """Nothing leaks: no locks, waiters, open branch transactions on a
    live node, or registered distributed transactions."""
    cluster = ev.cluster
    failures: list[str] = []
    if cluster.lock_table.lock_count:
        failures.append(f"{cluster.lock_table.lock_count} locks leaked")
    if cluster.lock_table.waiting_count:
        failures.append(
            f"{cluster.lock_table.waiting_count} lock waiters leaked"
        )
    for node in cluster.nodes:
        if not node.down and node.txm.active_count:
            failures.append(
                f"shard {node.shard_id}: {node.txm.active_count} "
                "transactions left open"
            )
    if cluster.active_count:
        failures.append(
            f"{cluster.active_count} distributed transactions registered"
        )
    return failures


def _last_writer(ev) -> list[str]:
    """Committed-visible / uncommitted-gone over the hot homes, counting
    the writes of every unacked-but-won transaction as committed."""
    return check_last_writer(
        ev.preload,
        ev.workload.write_log,
        ev.final,
        staged=[
            write
            for global_id in ev.unacked
            for write in ev.workload.staged.get(global_id, [])
        ],
        exact=lambda home: home[0] not in ev.lossy_shards,
        describe=lambda home: f"shard {home[0]} rid {tuple(home[1])}",
    )


def _session_digest(report, last_field: str) -> tuple:
    return tuple(
        (
            s.name, s.metrics.committed, s.metrics.aborted,
            s.metrics.retries, s.metrics.deadlocks, s.metrics.timeouts,
            s.metrics.gave_up, getattr(s.metrics, last_field),
        )
        for s in report.sessions
    )


def _ages_digest(final: dict) -> tuple:
    return tuple(sorted((sid, tuple(rid), v) for (sid, rid), v in final.items()))


# -- the 2pc suite -------------------------------------------------------


def _draw_2pc_case(
    seed: int,
) -> tuple[int, str, float | None, ShardedMixConfig, TwoPCInjector]:
    """The case generator: cluster + mix + crash point from one seed."""
    rng = Random(seed * 104_729 + 13)
    n_shards = rng.choice([2, 3, 4])
    scheme = rng.choice(["hash", "range"])
    lock_timeout_s = rng.choice([0.5, None])
    config = ShardedMixConfig.from_clients(
        rng.randint(2, 4),
        ops_per_client=rng.randint(2, 4),
        seed=seed,
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([6, 10]),
    )
    injector = TwoPCInjector(
        rng.choice(TWOPC_CRASH_POINTS), occurrence=rng.randint(1, 3)
    )
    return n_shards, scheme, lock_timeout_s, config, injector


def _execute_2pc(seed: int):
    n_shards, scheme, lock_timeout_s, config, injector = _draw_2pc_case(seed)
    cluster = load_sharded(
        DerbyConfig.db_1to3(scale=_SCALE),
        n_shards,
        scheme=scheme,
        lock_timeout_s=lock_timeout_s,
    )
    hot_homes = _hot_homes(cluster, config)
    # Preload ages *before* the run — the uncommitted-gone baseline.
    preload = _durable_ages(cluster, hot_homes)

    workload = ShardedWorkload(cluster, config)
    injector.arm(cluster)
    report = workload.run()

    resolved_commit = 0
    resolved_abort = 0
    decided_unacked: list[int] = []
    if report.crashed:
        cluster.crash()
        decided_unacked = sorted(
            _decided_globals(cluster) - workload.acked_globals
        )
        recovery = cluster.recover()
        resolved_commit = sum(r.txns_resolved_commit for r in recovery)
        resolved_abort = sum(r.txns_resolved_abort for r in recovery)
    final = _durable_ages(cluster, hot_homes)

    digest = _session_digest(report, "io_failures") + (
        round(report.elapsed_s, 9),
        report.context_switches,
        report.crashed,
        tuple(decided_unacked),
        resolved_commit,
        resolved_abort,
        _ages_digest(final),
    )
    row = {
        "Shards": n_shards,
        "Scheme": scheme,
        "CrashPoint": injector.point,
        "Occ": injector.occurrence,
        "Committed": report.committed,
        "Aborted": report.aborted,
        "Crashed": report.crashed,
        "ResolvedC": resolved_commit,
        "ResolvedA": resolved_abort,
    }
    evidence = SimpleNamespace(
        crashed=report.crashed,
        cluster=cluster,
        workload=workload,
        injector=injector,
        preload=preload,
        final=final,
        unacked=decided_unacked,
        lossy_shards=frozenset(),
    )
    return row, digest, evidence


def _crash_was_injected(ev) -> list[str]:
    if ev.crashed and not ev.injector.fired:
        return ["run crashed but the 2PC injector never fired"]
    if ev.injector.fired and not ev.crashed:
        return ["injector fired but the run did not crash"]
    return []


def _note_2pc(cases) -> str:
    crashed = [c for c in cases if c.row["Crashed"]]
    covered = len({c.row["CrashPoint"] for c in crashed})
    return (
        f"{len(crashed)} crashed ({covered}/{len(TWOPC_CRASH_POINTS)} "
        "protocol points covered); invariants: committed-visible (incl. "
        "decided-but-unacked), uncommitted-gone, zero leaks, "
        "deterministic re-runs"
    )


# -- the failover suite --------------------------------------------------

#: How each failover chaos case kills the primary.
FAILOVER_KILL_KINDS = ("timed", "ship", "double")


def _draw_failover_case(
    seed: int, ship_mode: str
) -> tuple[int, str, ShardedMixConfig, str, str, int, int, float, int]:
    """Case generator: cluster shape, mix, kill recipe from one seed."""
    rng = Random(seed * 15_485_863 + 29)
    n_shards = rng.choice([2, 3])
    scheme = rng.choice(["hash", "range"])
    config = ShardedMixConfig.from_clients(
        rng.randint(2, 4),
        ops_per_client=rng.randint(3, 5),
        seed=seed,
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([6, 10]),
    )
    kind = rng.choice(FAILOVER_KILL_KINDS)
    if kind == "ship":
        point = rng.choice(REPLICATION_KILL_POINTS[:3])
    elif kind == "double":
        point = rng.choice(REPLICATION_KILL_POINTS[3:])
    else:
        point = "timed"
    victim = rng.randrange(n_shards)
    kill_at_s = rng.uniform(0.01, 0.25)
    occurrence = rng.randint(1, 3)
    max_lag = rng.choice([4, 16]) if ship_mode == "async" else 64
    return (
        n_shards, scheme, config, kind, point, victim, occurrence,
        kill_at_s, max_lag,
    )


def _settle_failover(cluster: ShardedCluster) -> None:
    """Idle the coordinator forward until every killed shard has either
    failed over or proven unpromotable: charge heartbeat-interval waits
    and tick, so leases expire on the same deterministic timeline the
    run used."""
    if cluster.detector is None:
        return
    for __ in range(64):
        cluster.tick()
        down = [
            sid
            for sid in range(cluster.n_shards)
            if cluster.route.node_for(sid).down
            and cluster.standbys.get(sid) is not None
            and not cluster.standbys[sid].down
        ]
        if not down:
            return
        cluster.clock.charge_s(_BACKOFF, HEARTBEAT_INTERVAL_S)


def _execute_failover(seed: int, ship_mode: str):
    (
        n_shards, scheme, config, kind, point, victim, occurrence,
        kill_at_s, max_lag,
    ) = _draw_failover_case(seed, ship_mode)
    cluster = load_sharded(
        DerbyConfig.db_1to3(scale=_SCALE),
        n_shards,
        scheme=scheme,
        replicas=1,
        ship_mode=ship_mode,
        max_lag_records=max_lag,
    )
    hot_homes = _hot_homes(cluster, config)
    preload = _durable_ages(cluster, hot_homes)

    workload = ShardedWorkload(cluster, config)
    injector: ReplicationInjector | None = None
    if kind == "timed":
        cluster.schedule_kill(victim, kill_at_s)
    elif kind == "ship":
        injector = ReplicationInjector(point, occurrence=occurrence)
        injector.arm(cluster)
    else:  # double failure: timed primary kill + replica dies promoting
        cluster.schedule_kill(victim, kill_at_s)
        injector = ReplicationInjector(point, occurrence=1)
        injector.arm(cluster)
    report = workload.run()
    _settle_failover(cluster)

    killed = cluster.kills > 0
    failed_over = any(cluster.route.failovers)

    # Unacked-but-won commits come from two places: durable decision
    # records (multi-shard 2PC), and branch commit records that reached
    # a promoted replica's durable log (one-phase commits whose ack
    # died with the primary).
    replica_committed: set[int] = set()
    for sid in range(cluster.n_shards):
        if not cluster.route.failovers[sid]:
            continue
        node = cluster.route.node_for(sid)
        for record in node.txm.log.durable_records():
            if record.kind == "commit":
                global_id = workload.branch_globals.get((sid, record.txn_id))
                if global_id is not None:
                    replica_committed.add(global_id)
    extras = sorted(
        (_decided_globals(cluster) | replica_committed)
        - workload.acked_globals
    )

    loss_window = max(cluster.loss_windows.values(), default=0)
    final = _durable_ages(cluster, hot_homes)
    total_unavailable_s = sum(
        cluster.shard_unavailable_s(sid) for sid in range(cluster.n_shards)
    )
    digest = _session_digest(report, "unavailable") + (
        round(report.elapsed_s, 9),
        report.context_switches,
        killed,
        tuple(cluster.route.epochs),
        tuple(cluster.route.failovers),
        tuple(sorted(cluster.loss_windows.items())),
        tuple(extras),
        round(total_unavailable_s, 9),
        _ages_digest(final),
    )
    row = {
        "Mode": ship_mode,
        "Shards": n_shards,
        "Kind": kind,
        "Point": point,
        "Killed": killed,
        "FailedOver": failed_over,
        "Committed": report.committed,
        "Unavail": report.unavailable,
        "LossWin": loss_window,
        "Down (s)": round(total_unavailable_s, 4),
    }
    evidence = SimpleNamespace(
        ship_mode=ship_mode,
        kind=kind,
        point=point,
        killed=killed,
        loss_window=loss_window,
        cluster=cluster,
        workload=workload,
        injector=injector,
        preload=preload,
        final=final,
        unacked=extras,
        # Async shipping may lose acked writes, but only on a shard
        # whose link reported a loss window; sync never may.
        lossy_shards=frozenset(
            sid
            for sid, window in cluster.loss_windows.items()
            if window and ship_mode == "async"
        ),
    )
    return row, digest, evidence


def _failover_protocol(ev) -> list[str]:
    """Kills land where they were aimed and promotions are fenced."""
    cluster, injector = ev.cluster, ev.injector
    failures: list[str] = []
    fired = injector is not None and injector.fired
    if ev.kind == "ship" and fired and not ev.killed:
        failures.append("ship injector fired but no primary died")
    if ev.kind == "double" and ev.killed and fired:
        sid = injector.fired_shard
        if sid is not None and cluster.route.failovers[sid]:
            failures.append(
                f"shard {sid} failed over after its replica was killed "
                f"at {ev.point}"
            )
    for sid in range(cluster.n_shards):
        if cluster.route.failovers[sid]:
            node = cluster.route.node_for(sid)
            if node.down or node.role != "primary":
                failures.append(f"shard {sid} promoted a non-serving node")
            if node.epoch != cluster.route.epoch_of(sid):
                failures.append(f"shard {sid} epoch mismatch after failover")
            if cluster.shard_unavailable_s(sid) <= 0:
                failures.append(
                    f"shard {sid} failed over with zero recorded downtime"
                )
    return failures


def _sync_loses_nothing(ev) -> list[str]:
    if ev.ship_mode == "sync" and ev.loss_window:
        return [f"sync link reported a {ev.loss_window}-record loss window"]
    return []


def _note_failover(cases) -> str:
    killed = sum(1 for c in cases if c.row["Killed"])
    promoted = sum(1 for c in cases if c.row["FailedOver"])
    return (
        f"{killed} primaries killed, {promoted} failovers completed; "
        "invariants: acked-visible (sync: exactly; async: bounded loss "
        "window), uncommitted-gone, epoch fencing, zero leaks, "
        "deterministic re-runs"
    )


TWOPC = Suite(
    name="2pc",
    execute=_execute_2pc,
    invariants=[_crash_was_injected, _cluster_leaks, _last_writer],
    title="2PC chaos: {n} seeded crash-injected sharded runs",
    note=_note_2pc,
)

FAILOVER = Suite(
    name="failover",
    execute=_execute_failover,
    invariants=[
        _failover_protocol, _cluster_leaks, _sync_loses_nothing, _last_writer,
    ],
    title="Failover chaos: {n} seeded primary-kill runs",
    note=_note_failover,
    variants=(("sync",), ("async",)),
)
