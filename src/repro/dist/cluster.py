"""The simulated cluster: N shard nodes plus the coordinator's timeline.

A :class:`ShardedCluster` owns:

* the :class:`~repro.dist.node.ShardNode` list (each a complete
  single-node stack over its partition slice);
* the **coordinator clock** — the experiment's timeline.  Shard clocks
  meter per-node *work*; the coordinator charges that work to its own
  timeline as it observes it: serially for a single :meth:`call`
  (``Bucket.REMOTE`` = the shard's busy delta), in parallel for a
  :meth:`fanout` (the **max** of the deltas — the other shards' work
  overlaps it, which is where sharded scans get their speed-up);
* a fixed ``Bucket.RPC`` charge per cross-node message, from the same
  :class:`~repro.simtime.CostParams` the client/server wire always used;
* the **decision log** — a coordinator-local
  :class:`~repro.txn.log.WriteAheadLog` holding only two-phase-commit
  decision records (see :mod:`repro.dist.twopc`);
* the :class:`~repro.dist.deadlock.GlobalLockTable` and the distributed
  transaction registry.

:meth:`crash` power-cuts every node *and* the coordinator;
:meth:`recover` restarts each shard with an in-doubt resolver that
consults the durable decision log — the presumed-abort recovery rule.
"""

from __future__ import annotations

from repro.cluster.loader import load_derby
from repro.derby.config import DerbyConfig
from repro.derby.generator import LogicalDatabase, generate
from repro.dist.deadlock import GlobalLockTable
from repro.dist.failure import FailureDetector
from repro.dist.node import ShardNode
from repro.dist.partition import PartitionMap, RouteTable, split_logical
from repro.dist.replication import EPOCH_RECORD_BYTES, ReplicaLink
from repro.dist.twopc import DistTransaction
from repro.errors import ShardUnavailableError, StaleEpochError
from repro.recovery.aries import RecoveryReport, restart
from repro.recovery.crash import NamedPointInjector, crash_database
from repro.simtime import Bucket, SimClock
from repro.txn.log import WriteAheadLog

_RPC = Bucket.RPC
_REMOTE = Bucket.REMOTE


class ShardedCluster:
    """N shards, one coordinator timeline."""

    def __init__(
        self,
        config: DerbyConfig,
        part: PartitionMap,
        nodes: list[ShardNode],
        clock: SimClock,
    ):
        self.config = config
        self.part = part
        self.nodes = nodes
        self.clock = clock
        self.params = nodes[0].db.params
        self.decision_log = WriteAheadLog(self.clock, self.params)
        self.lock_table = GlobalLockTable(nodes)
        #: The one injector slot: an armed
        #: :class:`~repro.dist.twopc.TwoPCInjector` or
        #: :class:`~repro.dist.replication.ReplicationInjector`.
        self.injector: NamedPointInjector | None = None
        self._next_global = 1
        self._active: dict[int, DistTransaction] = {}
        self.msgs = 0
        self.msg_bytes = 0
        self.committed = 0
        self.aborted = 0
        # -- replication (see repro.dist.replication) ------------------
        #: The serving node per shard and its fencing epoch.  Wraps
        #: ``nodes`` by reference: a failover rewrite is visible to
        #: everything holding the list.
        self.route = RouteTable(nodes)
        #: Warm standbys awaiting promotion, by shard id.
        self.standbys: dict[int, ShardNode] = {}
        #: Ship links, by shard id (removed once promotion consumes the
        #: standby or the link becomes unusable).
        self.links: dict[int, ReplicaLink] = {}
        #: Links consumed by a completed failover, by shard id — kept
        #: so ship/ack meters survive promotion for reporting.
        self.retired_links: dict[int, ReplicaLink] = {}
        #: Primaries deposed by failover (kept for diagnostics only —
        #: they are no longer routed to).
        self.retired: list[ShardNode] = []
        self.detector: FailureDetector | None = None
        #: Scheduled primary kills: (at_s, shard_id), sorted.
        self._kill_plan: list[tuple[float, int]] = []
        self.kills = 0
        #: Downtime already accounted per shard (completed failovers;
        #: use :meth:`shard_unavailable_s` for the live total).
        self.unavailable_s = [0.0] * len(nodes)
        #: shard id -> acknowledged-loss window (durable-but-unshipped
        #: records) snapshotted when its primary died.  Always 0 in sync
        #: mode; bounded by ``max_lag_records`` in async mode.
        self.loss_windows: dict[int, int] = {}

    @property
    def n_shards(self) -> int:
        return len(self.nodes)

    @property
    def elapsed_s(self) -> float:
        """The coordinator's timeline — the experiment's elapsed time."""
        return self.clock.elapsed_s

    @property
    def total_busy_s(self) -> float:
        """Sum of per-shard work (the cluster's aggregate effort)."""
        return sum(node.busy_s for node in self.nodes)

    # -- messaging ------------------------------------------------------

    def call(self, node: ShardNode, fn, nbytes: int = 0):
        """One round-trip to one shard: fixed RPC overhead, then the
        shard's busy delta charged serially as remote wait."""
        self._check_route(node)
        self.clock.charge_ms(_RPC, self.params.rpc_overhead_ms)
        self._note_msg(node, nbytes)
        before = node.db.clock.elapsed_s
        try:
            return fn()
        finally:
            delta = node.db.clock.elapsed_s - before
            if delta > 0:
                self.clock.charge_s(_REMOTE, delta)
                node.remote_wait_s += delta

    def fanout(self, calls, nbytes: int = 0, after_first=None):
        """One round-trip to several shards *in parallel*: RPC overhead
        per message, but only the slowest shard's busy delta is charged
        (the rest overlap it).  ``calls`` is ``[(node, fn), ...]``;
        ``after_first`` (used by 2PC crash injection) runs after the
        first call completes."""
        results = []
        deltas: list[tuple[float, ShardNode]] = []
        for node, __ in calls:
            self._check_route(node)
        for i, (node, fn) in enumerate(calls):
            self.clock.charge_ms(_RPC, self.params.rpc_overhead_ms)
            self._note_msg(node, nbytes)
            before = node.db.clock.elapsed_s
            results.append(fn())
            deltas.append((node.db.clock.elapsed_s - before, node))
            if i == 0 and after_first is not None:
                after_first()
        if deltas:
            slowest, node = max(deltas, key=lambda d: d[0])
            if slowest > 0:
                self.clock.charge_s(_REMOTE, slowest)
                node.remote_wait_s += slowest
        return results

    def _note_msg(self, node: ShardNode, nbytes: int) -> None:
        self.msgs += 1
        self.msg_bytes += nbytes
        node.msgs += 1
        node.msg_bytes += nbytes

    def _check_route(self, node: ShardNode) -> None:
        """The routing-metadata checks every message passes first: a
        down node fails fast (no RPC is charged — the route already says
        so), and a primary whose epoch predates the route's is a fenced
        zombie — it was deposed while partitioned away and must not
        serve, no matter how alive it feels."""
        if node.down:
            raise ShardUnavailableError(
                f"shard {node.shard_id} has no serving node "
                f"({node.role} is down, epoch "
                f"{self.route.epoch_of(node.shard_id)})"
            )
        if node.role == "primary" and node.epoch != self.route.epoch_of(
            node.shard_id
        ):
            raise StaleEpochError(
                f"shard {node.shard_id} traffic at epoch {node.epoch} "
                f"rejected: current epoch is "
                f"{self.route.epoch_of(node.shard_id)} (deposed primary)"
            )

    # -- distributed transactions ---------------------------------------

    def begin(self) -> DistTransaction:
        dtx = DistTransaction(self, self._next_global)
        self._next_global += 1
        self._active[dtx.global_id] = dtx
        return dtx

    @property
    def active_count(self) -> int:
        return len(self._active)

    def _on_dist_finished(self, dtx: DistTransaction) -> None:
        self._active.pop(dtx.global_id, None)
        if dtx.state == "committed":
            self.committed += 1
        else:
            self.aborted += 1

    def reached(self, point: str, detail) -> None:
        """Report a named protocol step (2PC, WAL shipping, promotion)
        to the armed injector, if any.  ``detail`` says what was in
        flight: the global transaction for a 2PC step, the shard id for
        a replication step."""
        if self.injector is not None:
            self.injector.reached(point, detail)

    # -- replication ----------------------------------------------------

    def attach_replicas(
        self,
        replicas: list[ShardNode],
        mode: str = "sync",
        max_lag_records: int = 64,
    ) -> None:
        """Pair every shard with a warm standby: wire the ship links
        onto the primaries' WALs and start the failure detector."""
        for node in replicas:
            node.role = "replica"
            link = ReplicaLink(
                self,
                node.shard_id,
                self.nodes[node.shard_id],
                node,
                mode=mode,
                max_lag_records=max_lag_records,
            )
            link.attach()
            self.standbys[node.shard_id] = node
            self.links[node.shard_id] = link
        self.detector = FailureDetector(self)

    def kill_primary(self, shard_id: int, partition: bool = False) -> None:
        """Stop the shard's serving primary.  ``partition=False`` is a
        process kill (volatile state lost, durable state frozen);
        ``partition=True`` leaves the process intact but unreachable —
        the zombie that later tests the epoch fence.  Never raises:
        in-flight callers discover the death through
        :meth:`_check_route` or the armed injector."""
        node = self.route.node_for(shard_id)
        if node.down:
            return
        link = self.links.get(shard_id)
        if link is not None:
            # Snapshot the acknowledged-loss window before the WAL
            # mutates, then stop shipping.
            link.note_primary_down()
            self.loss_windows[shard_id] = link.loss_window_records or 0
        # Branches queued on the dying shard's locks must be woken (as
        # retryable lock conflicts) before the lock state evaporates.
        self.lock_table.fail_shard_waiters(shard_id)
        node.down = True
        if partition:
            # The process lives on, but nothing it ships or serves is
            # heard again until it rejoins (and then the fence decides).
            node.txm.log.ship_listener = None
        else:
            crash_database(node.db, node.txm)
        if self.detector is not None:
            self.detector.note_down(shard_id)
        self.kills += 1

    def rejoin(self, node: ShardNode) -> None:
        """A partitioned node heals and tries to serve again.  Nothing
        is rewired: if it was deposed meanwhile, its stale epoch makes
        every call raise :class:`~repro.errors.StaleEpochError`."""
        node.down = False

    def schedule_kill(self, shard_id: int, at_s: float) -> None:
        """Kill the shard's primary at simulated time ``at_s`` (executed
        by the next :meth:`tick` at or after that time)."""
        self._kill_plan.append((at_s, shard_id))
        self._kill_plan.sort()

    def tick(self) -> None:
        """Advance failure handling on the coordinator timeline:
        execute due scheduled kills, drain async ship links, pump the
        failure detector, and fail over shards it declared dead.  Called
        at session operation boundaries; a cluster without replication
        returns immediately."""
        if self.detector is None and not self._kill_plan:
            return
        now = self.clock.elapsed_s
        while self._kill_plan and self._kill_plan[0][0] <= now:
            __, sid = self._kill_plan.pop(0)
            self.kill_primary(sid)
        for link in self.links.values():
            link.pump()
        if self.detector is not None:
            for sid in self.detector.pump():
                self.failover(sid)

    def failover(self, shard_id: int) -> bool:
        """Fenced promotion of the shard's standby; returns whether the
        shard is serving again.

        Order matters and is lint-enforced (simlint PROTO): the epoch is
        bumped **in the decision log first** — once that record is
        durable, the old primary is deposed even if it never heard so —
        and only then does promotion change any state: the standby
        replays to its durable ship prefix, in-doubt 2PC branches
        resolve against the decision log (presumed abort), and the route
        rewrite installs the new primary under the new epoch."""
        self.reached("repl-before-promote", shard_id)
        replica = self.standbys.get(shard_id)
        if replica is None or replica.down:
            return False
        epoch = self.route.epoch_of(shard_id) + 1
        self.decision_log.append(
            0, "epoch", EPOCH_RECORD_BYTES, att=((shard_id, epoch),)
        )
        self.decision_log.flush()
        self.reached("repl-mid-promote", shard_id)
        if replica.down:
            # Double failure: the epoch is burned but no routing changed
            # — the shard simply has no promotable node left.
            return False
        decided = self.decided_branches()
        self.call(
            replica,
            lambda: restart(
                replica.db,
                replica.txm,
                resolve_in_doubt=lambda txn_id, sid=shard_id: (
                    "commit" if (sid, txn_id) in decided else "abort"
                ),
            ),
            nbytes=EPOCH_RECORD_BYTES,
        )
        replica.role = "primary"
        replica.epoch = epoch
        self.retired.append(self.nodes[shard_id])
        self.route.rewrite(shard_id, replica, epoch)
        self.standbys.pop(shard_id, None)
        link = self.links.pop(shard_id, None)
        if link is not None:
            link.detach()
            self.retired_links[shard_id] = link
        self.lock_table.attach_node(replica)
        if self.detector is not None:
            health = self.detector.health[shard_id]
            if health.down_since_s is not None:
                self.unavailable_s[shard_id] += (
                    self.clock.elapsed_s - health.down_since_s
                )
            self.detector.note_promoted(shard_id)
        return True

    def shard_unavailable_s(self, shard_id: int) -> float:
        """Total downtime of a shard so far: completed failovers plus
        any outage still in progress."""
        total = self.unavailable_s[shard_id]
        if self.detector is not None:
            h = self.detector.health[shard_id]
            if h.down_since_s is not None and self.route.node_for(
                shard_id
            ).down:
                total += self.clock.elapsed_s - h.down_since_s
        return total

    def all_nodes(self) -> list[ShardNode]:
        """Every node the cluster owns: serving primaries, standbys and
        deposed primaries (leak checks walk all of them)."""
        return [*self.nodes, *self.standbys.values(), *self.retired]

    # -- crash / recovery -----------------------------------------------

    def crash(self) -> None:
        """Power-cut the whole cluster: every shard loses its volatile
        state (see :func:`~repro.recovery.crash.crash_database`), the
        coordinator loses its unflushed decision-log tail and every
        open distributed transaction simply ceases to exist.  Ship
        links do not survive a full-cluster crash (recovery appends
        diverging compensation records on each side); replication chaos
        uses per-node :meth:`kill_primary` instead."""
        for link in self.links.values():
            link.detach()
        for node in self.all_nodes():
            if not node.down:
                crash_database(node.db, node.txm)
        self.decision_log.crash()
        for dtx in self._active.values():
            dtx.state = "crashed"
        self._active.clear()
        self.lock_table.clear()
        self.injector = None

    def recover(self) -> list[RecoveryReport]:
        """Restart every shard, resolving in-doubt 2PC branches against
        the coordinator's durable decision records (presumed abort: no
        decision record means abort)."""
        decided = self.decided_branches()
        reports = []
        for node in [*self.nodes, *self.standbys.values()]:
            reports.append(
                restart(
                    node.db,
                    node.txm,
                    resolve_in_doubt=lambda txn_id, sid=node.shard_id: (
                        "commit" if (sid, txn_id) in decided else "abort"
                    ),
                )
            )
            node.down = False
        return reports

    def decided_branches(self) -> set[tuple[int, int]]:
        """``(shard, branch txn)`` pairs named by durable decision
        records — the branches whose distributed commit won."""
        return {
            pair
            for record in self.decision_log.durable_records()
            if record.kind == "commit"
            for pair in record.att
        }

    # -- experiment hygiene ---------------------------------------------

    def start_cold(self) -> None:
        """Cold caches and zeroed meters everywhere, including the
        coordinator's clock and message counters."""
        for node in self.all_nodes():
            node.start_cold()
            node.msgs = 0
            node.msg_bytes = 0
            node.remote_wait_s = 0.0
        self.clock.reset()
        self.msgs = 0
        self.msg_bytes = 0
        for link in self.links.values():
            link.reset_meters()
        if self.detector is not None:
            self.detector.reset()
        self.kills = 0
        self.unavailable_s = [0.0] * len(self.nodes)
        self.loss_windows = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedCluster {self.n_shards}x{self.part.scheme} "
            f"{self.config.n_providers}p/{self.config.n_patients}q>"
        )


def load_sharded(
    config: DerbyConfig,
    n_shards: int,
    scheme: str = "hash",
    logical: LogicalDatabase | None = None,
    lock_timeout_s: float | None = None,
    replicas: int = 0,
    ship_mode: str = "sync",
    max_lag_records: int = 64,
) -> ShardedCluster:
    """Generate (or reuse) the logical Derby database, partition it and
    load every shard through the ordinary single-node loader.

    Passing ``logical`` lets benchmarks generate once and split many
    ways — the sharded copies then hold byte-identical attribute values,
    which is what the semantic-equivalence gates compare against.

    ``replicas=1`` loads each shard's slice a second time into a warm
    standby (byte-identical with its primary, including the WAL the
    loader left behind) and wires WAL shipping plus failure detection —
    see :mod:`repro.dist.replication`.
    """
    if replicas not in (0, 1):
        raise ValueError(
            f"replicas must be 0 or 1 (one standby per shard), got {replicas}"
        )
    if logical is None:
        logical = generate(config)
    part, views = split_logical(logical, n_shards, scheme)
    clock = SimClock()

    def build(shard_id: int, view) -> ShardNode:
        return ShardNode(
            shard_id,
            load_derby(view.config, logical=view),
            clock,
            lock_timeout_s=lock_timeout_s,
        )

    nodes = [build(shard_id, view) for shard_id, view in enumerate(views)]
    cluster = ShardedCluster(config, part, nodes, clock)
    if replicas:
        cluster.attach_replicas(
            [build(shard_id, view) for shard_id, view in enumerate(views)],
            mode=ship_mode,
            max_lag_records=max_lag_records,
        )
    return cluster
