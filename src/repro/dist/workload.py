"""Deterministic mixed workloads over a sharded cluster.

The sharded analogue of :class:`repro.service.WorkloadMixer`: sessions
run as cooperative tasks on the **coordinator's** timeline, interleaved
by the same round-robin scheduler the query service uses — except the
scheduler's lock manager is the cluster's
:class:`~repro.dist.deadlock.GlobalLockTable`, so a waits-for cycle that
spans shards is detected (and its youngest distributed transaction
aborted) exactly like a local one.  Clients are spawned, driven and
reported by the mixer's own machinery
(:func:`~repro.service.workload.spawn_clients`,
:func:`~repro.service.workload.session_loop`,
:class:`~repro.service.workload.MixReport`); only the operations, and
what a run sets up and tears down, are this module's.

Two profiles:

* **scanners** run a distributed OQL selection through the
  :class:`~repro.dist.coordinator.Coordinator`; the exchange operator's
  per-pull hook takes a scheduler ``batch_point``, so shard streams
  interleave with the updaters deterministically;
* **updaters** run cross-shard distributed transactions: write-lock a
  hot patient on one shard, yield (the window in which opposite-order
  pairs deadlock), write-lock one on *another* shard, update both, and
  commit with two-phase commit.

The workload keeps three records the 2PC chaos checker turns into an
oracle (:mod:`repro.dist.chaos`): ``write_log`` (acked writes in commit
order), ``staged`` (every write by global transaction id, recorded
*before* commit), and ``acked_globals``.  After a crash, a durable
decision record whose global id was never acked marks writes that
recovery **must** make durable even though no client heard the commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import TYPE_CHECKING

from repro.bench.report import Table
from repro.errors import (
    DistError,
    LockConflictError,
    ShardUnavailableError,
    SimulatedCrashError,
)
from repro.service.scheduler import CooperativeScheduler
from repro.service.service import SessionMetrics
from repro.service.workload import (
    ClientMix,
    MixReport,
    SessionReport,
    session_loop,
    spawn_clients,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.cluster import ShardedCluster
    from repro.recovery.transient import TransientFaultInjector
    from repro.storage.rid import Rid


@dataclass(frozen=True)
class ShardedMixConfig(ClientMix):
    """Shape of one multi-client mix over a sharded cluster: the shared
    client/retry fields, dealt over scanners and updaters.  (The
    lock-wait bound is a *cluster* property — see the ``lock_timeout_s``
    argument of ``load_sharded`` — and ``hot_set`` counts *global*
    patient indices.)"""

    updaters: int = 2


def sharded_table(report: MixReport, cluster: "ShardedCluster") -> Table:
    """The per-session table of a sharded run.  Its own view, not
    :meth:`MixReport.table`: coordinator-side sessions have no busy time
    of their own, and what a cluster adds is messages."""
    config = report.config
    table = Table(
        f"Sharded mix ({cluster.n_shards} shards): "
        f"{config.scanners} scanner(s) + "
        f"{config.updaters} updater(s), "
        f"{config.ops_per_client} ops each",
        ["Session", "Profile", "Committed", "Aborted", "Retries",
         "Deadlocks", "Timeouts", "Rows", "Wait (s)"],
    )
    for s in report.sessions:
        m = s.metrics
        table.add(
            s.name, s.profile, m.committed, m.aborted, m.retries,
            m.deadlocks, m.timeouts, m.rows, m.lock_wait_s,
        )
    table.note(
        f"aggregate: {report.committed} committed, {report.aborted} "
        f"aborted ({report.retries} retried, {report.gave_up} gave up) "
        f"in {report.elapsed_s:.2f} simulated s -> "
        f"{report.throughput_ops_s:.3f} txn/s; "
        f"{cluster.msgs} messages, {report.context_switches} switches"
    )
    return table


class ShardedWorkload:
    """Spawns and runs one deterministic mix over a cluster."""

    def __init__(
        self,
        cluster: "ShardedCluster",
        config: ShardedMixConfig,
        faults: "TransientFaultInjector | None" = None,
    ):
        from repro.dist.coordinator import Coordinator  # local: same layer

        self.cluster = cluster
        self.config = config
        #: Per-shard transient faults are derived via
        #: :meth:`~repro.recovery.transient.TransientFaultInjector.for_node`
        #: so each shard's fault schedule is a function of (seed, shard)
        #: alone, independent of the global read interleaving.
        self.faults = faults
        self._armed: "list[tuple[object, TransientFaultInjector]]" = []
        self.coordinator = Coordinator(
            cluster,
            **({} if config.batch_size is None
               else {"batch_size": config.batch_size}),
        )
        self.scheduler: CooperativeScheduler | None = None
        #: Acked committed writes in commit order:
        #: ``((shard, rid), value)``.  The single deterministic timeline
        #: totally orders commits, so the last write per (shard, rid) is
        #: the expected durable value.
        self.write_log: "list[tuple[tuple[int, Rid], int]]" = []
        #: Every write staged by a distributed transaction, keyed by its
        #: global id, recorded *before* 2PC starts.
        self.staged: "dict[int, list[tuple[tuple[int, Rid], int]]]" = {}
        #: Global ids whose commit ack reached the client.
        self.acked_globals: set[int] = set()
        #: ``(shard, branch txn id) -> global id`` for every branch a
        #: distributed transaction staged writes through.  After a
        #: primary kill, a branch commit record found durable on the
        #: *promoted replica* maps back to the global transaction whose
        #: writes the failover oracle must then expect — even if no
        #: client was ever acked (the "decided but unacked" case).
        self.branch_globals: "dict[tuple[int, int], int]" = {}
        #: Coordinator timestamps of acked operations (commits and
        #: scans), for windowed throughput-recovery measurements.
        self.op_times: list[float] = []

    # -- the run --------------------------------------------------------

    def run(self, cold: bool = True) -> MixReport:
        cluster = self.cluster
        config = self.config
        if cold:
            cluster.start_cold()
        self.write_log = []
        self.staged = {}
        self.acked_globals = set()
        self.branch_globals = {}
        self.op_times = []
        scheduler = CooperativeScheduler(cluster.clock, cluster.lock_table)
        self.scheduler = scheduler
        if self.faults is not None:
            # Primaries draw replica=0 streams, standbys replica=1 —
            # independent failures, the point of replication.
            self._armed = [
                (node, self.faults.for_node(node.shard_id))
                for node in cluster.nodes
            ] + [
                (node, self.faults.for_node(node.shard_id, replica=1))
                for node in cluster.standbys.values()
            ]
            for node, child in self._armed:
                child.arm(node.db, node.locks)
        policy = config.retry_policy()
        start_s = cluster.elapsed_s

        def spawn(
            name: str, profile: str, rng: Random, client_index: int
        ) -> SessionReport:
            metrics = SessionMetrics()
            op = {
                "scanner": self._scanner_op,
                "updater": self._updater_op,
            }[profile]

            def attempt() -> None:
                try:
                    # Drive failure handling forward on every attempt:
                    # due kills land, async links drain, leases expire
                    # and dead shards fail over.  Inside the ``try``: an
                    # injected kill firing mid-ship must surface as a
                    # retryable ShardUnavailableError like any other op.
                    cluster.tick()
                    op(metrics, rng)
                except (LockConflictError, ShardUnavailableError):
                    # One ``aborted`` per attempt that failed this way,
                    # scanners included — they have no transaction whose
                    # abort could count it.  The retry decision is the
                    # shared loop's.
                    metrics.aborted += 1
                    raise

            scheduler.spawn(
                name,
                partial(
                    session_loop, [attempt] * config.ops_per_client,
                    metrics, policy, rng, cluster.clock, scheduler,
                ),
            )
            return SessionReport(name, profile, metrics)

        reports = spawn_clients(config, spawn)
        try:
            tasks = scheduler.run()
            crashed = any(
                isinstance(t.error, SimulatedCrashError) for t in tasks
            )
            for report, task in zip(reports, tasks):
                report.metrics.lock_wait_s = task.lock_wait_s
                report.metrics.lock_waits = task.lock_waits
            if crashed:
                # Volatile state is meaningless past the crash point;
                # leave the cluster as the injector froze it — the chaos
                # checker calls cluster.crash() / recover() itself.
                pass
            else:
                for task in tasks:
                    if task.error is not None:
                        raise task.error
        finally:
            # The cluster outlives this workload: leave no scheduler
            # wiring or transient faults behind to corrupt later runs.
            cluster.lock_table.detach()
            for node, child in self._armed:
                child.disarm(node.db, node.locks)
            self._armed = []
        return MixReport(
            config=config,
            sessions=reports,
            elapsed_s=cluster.elapsed_s - start_s,
            context_switches=scheduler.context_switches,
            crashed=crashed,
        )

    # -- the operations -------------------------------------------------

    def _scanner_op(self, metrics: SessionMetrics, rng: Random) -> None:
        config = self.config
        threshold = self.cluster.config.num_threshold(
            config.scan_selectivity_pct
        )
        assert self.scheduler is not None
        rows = self.coordinator.execute(
            f"select p.age from p in Patients where p.num > {threshold}",
            on_batch=self.scheduler.batch_point,
        )
        metrics.rows += len(rows)
        metrics.committed += 1
        self.op_times.append(self.cluster.elapsed_s)

    def _updater_op(self, metrics: SessionMetrics, rng: Random) -> None:
        cluster = self.cluster
        part = cluster.part
        hot = min(self.config.hot_set, len(part.patient_shard))
        if hot < 2:
            raise DistError("updater needs at least two hot patients")
        first, second = rng.sample(range(hot), 2)
        if cluster.n_shards > 1:
            # Prefer a genuinely cross-shard pair: redraw the second
            # patient (bounded, from the session's own stream) until it
            # lives on a different shard than the first.
            for __ in range(8):
                if part.patient_home(second)[0] != part.patient_home(first)[0]:
                    break
                second = rng.randrange(hot)
                if second == first:
                    second = (second + 1) % hot
        targets: "list[tuple[int, Rid]]" = []
        for idx in (first, second):
            shard_id, local = part.patient_home(idx)
            rid = cluster.nodes[shard_id].derby.patient_rids[local]
            targets.append((shard_id, rid))
        assert self.scheduler is not None
        dtx = cluster.begin()
        try:
            writes: "list[tuple[tuple[int, Rid], int]]" = []
            for i, (shard_id, rid) in enumerate(targets):
                txn = dtx.branch(shard_id)
                # Pin every later touch to the node the branch opened
                # on: a mid-transaction failover must surface as a typed
                # error, never silently reroute to the new primary.
                node = dtx.branch_nodes[shard_id]
                self.branch_globals[(shard_id, txn.txn_id)] = dtx.global_id
                cluster.call(node, lambda t=txn, r=rid: t.write_lock(r))
                if i == 0:
                    # The window in which opposite-order pairs deadlock.
                    self.scheduler.yield_point()
            for shard_id, rid in targets:
                node = dtx.branch_nodes[shard_id]
                age = cluster.call(
                    node,
                    lambda n=node, r=rid: n.db.manager.get_attr_at(r, "age"),
                )
                value = (int(age) % 90) + 1
                dtx.update_scalar(shard_id, rid, "age", value)
                writes.append(((shard_id, rid), value))
            self.staged[dtx.global_id] = list(writes)
            dtx.commit()
        except BaseException as exc:
            # After a simulated crash the shard logs refuse service, so
            # rolling back would just crash again — the cluster-level
            # crash/recover path owns cleanup from here.
            if dtx.state == "active" and not isinstance(
                exc, SimulatedCrashError
            ):
                dtx.abort()
            raise
        # Ack: the client heard the commit.  On the single timeline ack
        # order == commit order — the chaos checker's primary oracle.
        self.acked_globals.add(dtx.global_id)
        self.write_log.extend(writes)
        metrics.committed += 1
        self.op_times.append(cluster.elapsed_s)
