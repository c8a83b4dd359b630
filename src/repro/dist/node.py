"""One simulated shard: a complete single-node stack plus RPC metering.

A :class:`ShardNode` owns everything a standalone deployment owns — its
own :class:`~repro.storage.disk.DiskManager`, server buffer, handle
table, :class:`~repro.txn.locks.LockManager`, write-ahead log and OQL
engine (a planner never analyzed, extensions on) — built by the ordinary
loader over the shard's logical slice.  Nothing inside the single-node
stack knows it is sharded.

Two deliberate deviations from a plain single-node build:

* the shard's **lock manager runs on the coordinator's clock**, so lock
  wait durations and timeouts are comparable across shards (the global
  deadlock detector unions per-shard waits-for graphs; a per-shard
  timeline would make ``enqueued_s`` meaningless at the coordinator);
* the shard's **transaction manager is always in recovery mode** — its
  WAL carries physical records, which is what two-phase commit prepares
  and :func:`repro.recovery.restart` resolves after a crash.

The shard's own :class:`~repro.simtime.SimClock` keeps running: it is
the meter of *work this node performed*, which the coordinator charges
to its timeline as parallel remote time (``Bucket.REMOTE``).
"""

from __future__ import annotations

from repro.cluster.loader import DerbyDatabase
from repro.oql.catalog import Catalog
from repro.oql.engine import OQLEngine
from repro.oql.optimizer import Optimizer
from repro.simtime import SimClock
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager


class ShardNode:
    """One shard of a :class:`~repro.dist.cluster.ShardedCluster`."""

    def __init__(
        self,
        shard_id: int,
        derby: DerbyDatabase,
        coord_clock: SimClock,
        lock_timeout_s: float | None = None,
    ):
        self.shard_id = shard_id
        self.derby = derby
        self.db = derby.db
        self.txm = TransactionManager(self.db, recovery=True)
        # Lock bookkeeping moves to the coordinator timeline (see module
        # docstring); data-path charges stay on the shard clock.
        self.txm.locks = LockManager(
            coord_clock, self.db.params, timeout_s=lock_timeout_s
        )
        self.catalog = Catalog.from_derby(derby)
        self.engine = OQLEngine(
            self.catalog,
            optimizer=Optimizer(self.catalog, include_extensions=True),
        )
        #: Cross-node messages addressed to this shard.
        self.msgs = 0
        #: Payload bytes of those messages (both directions).
        self.msg_bytes = 0
        #: Simulated seconds the coordinator spent waiting on this shard
        #: (the serialized remainder of this shard's parallel work).
        self.remote_wait_s = 0.0
        # -- replication state (see repro.dist.replication) ------------
        #: ``"primary"`` serves traffic; ``"replica"`` only applies
        #: shipped redo until promoted.
        self.role = "primary"
        #: Shard epoch this node was installed as primary under.  The
        #: cluster bumps the authoritative epoch in its decision log at
        #: every failover; a deposed primary keeps its old value, which
        #: is what the fence compares against.
        self.epoch = 0
        #: The node's process is dead (killed) or partitioned away —
        #: either way it cannot serve until replaced.
        self.down = False

    @property
    def locks(self) -> LockManager:
        return self.txm.locks

    @property
    def busy_s(self) -> float:
        """Total simulated work this node has performed."""
        return self.db.clock.elapsed_s

    def start_cold(self) -> None:
        """Empty this shard's caches and zero its meters."""
        self.derby.start_cold_run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardNode {self.shard_id}: "
            f"{len(self.derby.provider_rids)}p/"
            f"{len(self.derby.patient_rids)}q>"
        )
