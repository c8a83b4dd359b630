"""Per-shard replication: WAL shipping, warm standbys, kill injection.

Each shard's primary can be paired with a **replica** — a second
:class:`~repro.dist.node.ShardNode` built from the same logical slice,
so the pair starts byte-identical.  From then on the replica never sees
client traffic: it is fed exclusively by **log shipping** and stays a
warm standby until fenced failover (:meth:`~repro.dist.cluster.
ShardedCluster.failover`) promotes it.

**Shipping.**  The primary's WAL fires ``ship_listener`` at the end of
every flush that advanced its durable boundary.  A :class:`ReplicaLink`
forwards the newly-durable records as one typed *ship* message —
charged through the coordinator clock as RPC overhead plus page-sized
``Bucket.TRANSFER``, like every other cross-node message — and the
replica then, on its own clock (charged back to the coordinator as
parallel remote work):

1. appends the records verbatim, preserving LSNs
   (:meth:`~repro.txn.log.WriteAheadLog.append_shipped`) and flushes,
   so the replica's durable log prefix trails the primary's by exactly
   the unshipped window;
2. applies redo continuously (:func:`repro.recovery.redo_apply` — the
   ARIES-lite redo pass packaged as an entry point) and durably writes
   the touched pages, so the standby's disk state always reflects its
   shipped prefix and promotion replays almost nothing.

A typed *ack* message returns, advancing ``acked_lsn``.

**Sync vs async.**  In ``sync`` mode the ship round-trip runs *inside*
the primary's flush — no client is acknowledged before the replica
durably holds the records, so a primary kill can never lose an acked
write (the zero-acked-loss gate in ``benchmarks/bench_replication.py``).
In ``async`` mode flushes only note the lag and shipping happens on the
cluster's :meth:`~repro.dist.cluster.ShardedCluster.tick` (or earlier,
if the lag exceeds ``max_lag_records`` — the **bounded acknowledged-loss
window**): clients ack sooner, but a primary kill loses at most
``max_lag_records`` acked log records, and the link reports the exact
window it lost (:attr:`ReplicaLink.loss_window_records`).

**Kill points.**  :class:`ReplicationInjector` is the *single-node* kind
of :class:`~repro.recovery.NamedPointInjector`: the three ship points kill
the shipping primary (the client's call surfaces
:class:`~repro.errors.ShardUnavailableError` and the session retries
through its backoff policy), the two promote points kill the replica
mid-failover — the double failure that leaves a shard with no
promotable node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReplicationError, ShardUnavailableError
from repro.recovery.aries import redo_apply
from repro.recovery.crash import NamedPointInjector, crash_database
from repro.simtime import Bucket
from repro.txn.log import PHYSICAL_KINDS
from repro.units import PAGE_SIZE, pages_for_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.cluster import ShardedCluster
    from repro.dist.node import ShardNode

#: The supported shipping disciplines.
SHIP_MODES = ("sync", "async")

#: Framing overhead of one ship message (source LSN range + epoch).
SHIP_HEADER_BYTES = 32
#: One ship acknowledgement (acked LSN + epoch).
SHIP_ACK_BYTES = 16
#: One epoch-bump record in the coordinator's decision log.
EPOCH_RECORD_BYTES = 24

#: The named replication kill points, in protocol order.
REPLICATION_KILL_POINTS = (
    # The primary dies with durable records it never shipped: sync mode
    # has not acked them (the flush dies too), async mode may have —
    # this is the acknowledged-loss window in action.
    "repl-before-ship",
    # The replica holds and applied the records but the primary dies
    # before the ack: the client is never acknowledged, yet promotion
    # makes the write visible — the "decided but unacked" legal case
    # the chaos oracle admits.
    "repl-mid-ship",
    # The ack arrived, then the primary died: everything acked is on
    # the replica, nothing is lost.
    "repl-after-ship",
    # The replica dies before the fencing epoch is durable: the shard
    # has no promotable node and stays unavailable.
    "repl-before-promote",
    # The replica dies after the epoch bump but before promotion
    # completes: the epoch is burned, the shard stays unavailable —
    # proving the epoch record alone changes no routing.
    "repl-mid-promote",
)


class ReplicaLink:
    """The shipping channel between one shard's primary and its replica."""

    def __init__(
        self,
        cluster: "ShardedCluster",
        shard_id: int,
        primary: "ShardNode",
        replica: "ShardNode",
        mode: str = "sync",
        max_lag_records: int = 64,
    ):
        if mode not in SHIP_MODES:
            raise ReplicationError(
                f"unknown ship mode {mode!r}; choose from {SHIP_MODES}"
            )
        if max_lag_records < 1:
            raise ReplicationError(
                f"max_lag_records must be >= 1, got {max_lag_records}"
            )
        p_wal, r_wal = primary.txm.log, replica.txm.log
        if (
            r_wal.next_lsn != p_wal.next_lsn
            or r_wal.durable_lsn != p_wal.durable_lsn
        ):
            raise ReplicationError(
                f"shard {shard_id} replica log (next {r_wal.next_lsn}, "
                f"durable {r_wal.durable_lsn}) does not match its primary "
                f"(next {p_wal.next_lsn}, durable {p_wal.durable_lsn}); "
                "replicas must be built from the same logical slice"
            )
        self.cluster = cluster
        self.shard_id = shard_id
        self.primary = primary
        self.replica = replica
        self.mode = mode
        self.max_lag_records = max_lag_records
        #: Highest LSN the replica has durably acknowledged.
        self.acked_lsn = p_wal.durable_lsn
        #: The link stops shipping once the primary is down.
        self.active = True
        # Index into the primary's (append-only) record list just past
        # the acked prefix — avoids rescanning history on every flush.
        self._cursor = len(p_wal.records)
        # First-touch page-read accounting for continuous redo.
        self._fetched: set[tuple[int, int]] = set()
        # Durable boundary as of the last flush whose ship hook returned
        # without raising — i.e. the highest LSN a *client* can have
        # seen acknowledged.  Records above this were part of a flush
        # that died mid-ship, so losing them loses nothing acked.
        self._client_acked_lsn = p_wal.durable_lsn
        # -- meters ------------------------------------------------------
        self.ship_msgs = 0
        self.shipped_records = 0
        self.shipped_bytes = 0
        self.acks = 0
        #: Total coordinator-timeline seconds between ship send and ack.
        self.ack_wait_s = 0.0
        #: Durable-but-unshipped records at the moment the primary died —
        #: the acknowledged-loss window async mode reports (always 0 for
        #: a sync link: unshipped records were never acked).
        self.loss_window_records: int | None = None

    # -- wiring ---------------------------------------------------------

    def attach(self) -> None:
        """Install the ship hook on the primary's WAL."""
        self.primary.txm.log.ship_listener = self._on_durable

    def detach(self) -> None:
        if self.primary.txm.log.ship_listener == self._on_durable:
            self.primary.txm.log.ship_listener = None
        self.active = False

    def reset_meters(self) -> None:
        self.ship_msgs = 0
        self.shipped_records = 0
        self.shipped_bytes = 0
        self.acks = 0
        self.ack_wait_s = 0.0

    # -- the shipping protocol ------------------------------------------

    def _on_durable(self, old_durable: int, new_durable: int) -> None:
        """The primary's flush advanced its durable boundary."""
        if not self.active:
            return
        if self.mode == "sync":
            self.ship()
        elif self.lag_records() > self.max_lag_records:
            # Async, but the loss bound is due: drain before acking.
            self.ship()
        # Reaching here means the flush completes and its commits get
        # acknowledged to clients (sync: after the ship round-trip).
        self._client_acked_lsn = new_durable

    def pump(self) -> None:
        """Ship anything pending (async links drain here, on the
        cluster's tick)."""
        if self.active and self.lag_records() > 0:
            self.ship()

    def lag_records(self) -> int:
        """Durable primary records the replica has not acknowledged."""
        return len(self._unshipped())

    def ship(self) -> None:
        """One ship round-trip: send the durable-unshipped suffix,
        append + flush + apply at the replica, receive the ack."""
        records = self._unshipped()
        if not records:
            return
        cluster = self.cluster
        cluster.reached("repl-before-ship", self.shard_id)
        clock = cluster.clock
        params = cluster.params
        nbytes = SHIP_HEADER_BYTES + sum(r.nbytes for r in records)
        t_ship = clock.elapsed_s
        clock.charge_ms(Bucket.RPC, params.rpc_overhead_ms)
        clock.charge_ms(
            Bucket.TRANSFER,
            pages_for_bytes(nbytes, PAGE_SIZE) * params.page_transfer_ms,
        )
        cluster._note_msg(self.replica, nbytes)
        # The replica works on its own clock; the coordinator observes
        # the delta as remote wait, like any other single-node call.
        before = self.replica.db.clock.elapsed_s
        self._apply_at_replica(records)
        delta = self.replica.db.clock.elapsed_s - before
        if delta > 0:
            clock.charge_s(Bucket.REMOTE, delta)
            self.replica.remote_wait_s += delta
        cluster.reached("repl-mid-ship", self.shard_id)
        # The ack.
        clock.charge_ms(Bucket.RPC, params.rpc_overhead_ms)
        cluster._note_msg(self.primary, SHIP_ACK_BYTES)
        self.acked_lsn = records[-1].lsn
        self._cursor += len(records)
        self.ship_msgs += 1
        self.shipped_records += len(records)
        self.shipped_bytes += nbytes
        self.acks += 1
        self.ack_wait_s += clock.elapsed_s - t_ship
        cluster.reached("repl-after-ship", self.shard_id)

    def note_primary_down(self) -> None:
        """Snapshot the acknowledged-loss window and stop shipping.

        Only records a client could have seen acknowledged count: the
        suffix of an in-flight flush that died mid-ship was never acked
        to anyone, so its records are aborted work, not lost work.
        """
        if self.loss_window_records is None:
            self.loss_window_records = sum(
                1
                for r in self._unshipped()
                if r.lsn <= self._client_acked_lsn
            )
        self.detach()

    # -- internals ------------------------------------------------------

    def _unshipped(self) -> list:
        """The primary's durable records past the acked prefix.  The
        record list is append-only while the primary lives, so the scan
        starts at the cached cursor, not at LSN zero."""
        wal = self.primary.txm.log
        records = wal.records
        out = []
        i = self._cursor
        while i < len(records) and records[i].lsn <= wal.durable_lsn:
            if records[i].lsn > self.acked_lsn:
                out.append(records[i])
            i += 1
        return out

    def _apply_at_replica(self, records: list) -> None:
        """Replica side of one ship: durable append, continuous redo,
        durable page writes — all on the replica's clock."""
        r_wal = self.replica.txm.log
        for record in records:
            r_wal.append_shipped(record)
        r_wal.flush()
        redo_apply(self.replica.db, records, self._fetched)
        db = self.replica.db
        disk = db.disk
        for key in sorted(
            {r.page_key for r in records if r.kind in PHYSICAL_KINDS}
        ):
            if disk.peek_page(*key).dirty:
                disk.write_page(*key)
            # Continuous redo mutates the disk-level page underneath
            # the buffer tiers; drop any stale cached copy so reads at
            # the standby (and after promotion) see what was applied.
            db.system.server_cache.drop(key)
            db.system.client_cache.drop(key)


class ReplicationInjector(NamedPointInjector):
    """Kills one node the ``occurrence``-th time ``point`` is reached.

    Unlike :class:`~repro.dist.twopc.TwoPCInjector` this is a *partial*
    failure: only the victim node dies; the cluster keeps running and is
    expected to fail over.  Ship points kill the shard's current
    primary and surface :class:`~repro.errors.ShardUnavailableError`
    from the in-flight call; promote points kill the shard's replica
    and let :meth:`~repro.dist.cluster.ShardedCluster.failover` discover
    the double failure on its own.  The detail every protocol step
    reports is the shard id it concerns.
    """

    POINTS = REPLICATION_KILL_POINTS

    def __init__(self, point: str, occurrence: int = 1):
        super().__init__(point, occurrence)
        self.fired_shard: int | None = None

    def arm(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster
        cluster.injector = self

    def kill(self, shard_id: int) -> None:
        self.fired_shard = shard_id
        cluster = self._cluster
        if self.point.endswith("-promote"):
            # Kill the replica mid-failover; failover re-checks `down`
            # after every reached() call and reports the shard
            # unpromotable instead of raising.
            replica = cluster.standbys.get(shard_id)
            if replica is not None and not replica.down:
                replica.down = True
                crash_database(replica.db, replica.txm)
            return
        cluster.kill_primary(shard_id)
        raise ShardUnavailableError(
            f"shard {shard_id} primary killed at {self.point} "
            f"(occurrence {self.seen})"
        )

    def _down(self) -> None:
        # The rest of the cluster outlives a single-node kill: later
        # protocol steps carry on, and the victim's death is discovered
        # through the route table.
        pass
