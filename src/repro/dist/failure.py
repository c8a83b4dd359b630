"""Heartbeat/lease failure detection on the coordinator timeline.

Real failure detectors trade detection latency against false positives
using wall-clock heartbeats; this one runs the same protocol on the
**simulated** coordinator clock, so detection is deterministic and its
cost is charged like any other message traffic:

* every serving primary sends a heartbeat each ``heartbeat_interval_s``
  of simulated time; the coordinator charges one ``Bucket.RPC`` per
  heartbeat it observes (the detector is *pumped* at coordinator
  interaction points — there is no background thread, and no wall
  clock anywhere);
* a heartbeat renews the node's **lease** for ``lease_s``: the node is
  ``alive`` while its lease is current;
* a node whose lease expired (its last heartbeat is more than
  ``lease_s`` old) becomes ``suspect``;
* a node that stays suspect for another ``grace_s`` becomes ``dead``,
  at which point :meth:`pump` reports it and the cluster runs fenced
  failover (:meth:`~repro.dist.cluster.ShardedCluster.failover`).

The lease math bounds the unavailability window: a primary killed at
time *t* sent its last heartbeat at most ``heartbeat_interval_s``
before *t*, so it is declared dead no later than
``t + lease_s + grace_s`` and no earlier than
``t + lease_s + grace_s - heartbeat_interval_s``.  Add the promotion
cost (replica restart) and that is the whole window during which the
shard answers :class:`~repro.errors.ShardUnavailableError`.

A network-partitioned node (see
:meth:`~repro.dist.cluster.ShardedCluster.kill_primary` with
``partition=True``) looks identical from here — heartbeats stop — which
is exactly why failover must be *fenced*: the detector can be wrong
about death, the epoch check cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReplicationError
from repro.simtime import Bucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.cluster import ShardedCluster

_RPC = Bucket.RPC

#: How long a node stays suspect before it is declared dead.
GRACE_S = 0.1

#: The health state machine, in order.  ``alive -> suspect`` when the
#: lease expires, ``suspect -> dead`` after the grace period; promotion
#: resets the shard's entry to ``alive`` for the new primary.
HEALTH_STATES = ("alive", "suspect", "dead")


@dataclass
class NodeHealth:
    """The detector's view of one shard's serving primary."""

    state: str = "alive"
    #: Simulated time of the last heartbeat the coordinator observed.
    last_heartbeat_s: float = 0.0
    #: When the node actually stopped (kill or partition); ``None``
    #: while it is up.  The detector itself never reads this directly —
    #: it only stops advancing ``last_heartbeat_s`` past it.
    down_since_s: float | None = None
    suspect_since_s: float | None = None
    dead_since_s: float | None = None
    #: Heartbeats observed (each one charged as an RPC).
    heartbeats: int = 0


class FailureDetector:
    """Per-shard lease state machine over the coordinator clock."""

    def __init__(
        self,
        cluster: "ShardedCluster",
        heartbeat_interval_s: float = 0.05,
        lease_s: float = 0.15,
    ):
        if lease_s < heartbeat_interval_s:
            raise ReplicationError(
                f"lease_s ({lease_s}) must cover at least one heartbeat "
                f"interval ({heartbeat_interval_s}); every renewal would "
                "otherwise arrive expired"
            )
        self.cluster = cluster
        self.heartbeat_interval_s = heartbeat_interval_s
        self.lease_s = lease_s
        self.grace_s = GRACE_S
        self.health = [NodeHealth() for __ in cluster.nodes]

    # -- events ---------------------------------------------------------

    def note_down(self, shard_id: int) -> None:
        """The shard's primary stopped (killed or partitioned away):
        record when, and deliver the heartbeats it sent up to that
        moment (they were already on the wire)."""
        h = self.health[shard_id]
        if h.down_since_s is not None:
            return
        now = self.cluster.clock.elapsed_s
        self._observe_heartbeats(h, now)
        h.down_since_s = now

    def note_promoted(self, shard_id: int) -> None:
        """A replica was promoted: the shard is served again, with a
        fresh lease starting now."""
        self.health[shard_id] = NodeHealth(
            last_heartbeat_s=self.cluster.clock.elapsed_s
        )

    def reset(self) -> None:
        """The coordinator clock was reset (``start_cold``): every
        healthy lease restarts at time zero."""
        for sid, h in enumerate(self.health):
            if h.down_since_s is None:
                self.health[sid] = NodeHealth()

    # -- the state machine ----------------------------------------------

    def pump(self) -> list[int]:
        """Advance every shard's lease state to *now*; returns the
        shards newly declared ``dead`` (the cluster fails them over).
        Deterministic: transitions depend only on the simulated clock
        and the recorded down times."""
        newly_dead: list[int] = []
        for sid, h in enumerate(self.health):
            if h.state == "dead":
                continue
            now = self.cluster.clock.elapsed_s
            if h.down_since_s is None:
                self._observe_heartbeats(h, now)
                continue
            lease_expiry = h.last_heartbeat_s + self.lease_s
            if h.state == "alive" and now >= lease_expiry:
                h.state = "suspect"
                h.suspect_since_s = lease_expiry
            if h.state == "suspect" and now >= lease_expiry + self.grace_s:
                h.state = "dead"
                h.dead_since_s = now
                newly_dead.append(sid)
        return newly_dead

    def _observe_heartbeats(self, h: NodeHealth, until_s: float) -> None:
        """Deliver (and charge) the heartbeats sent between the last
        observed one and ``until_s``.  Heartbeats are on the interval
        grid, so the schedule is a function of the clock alone."""
        beats = int(
            (until_s - h.last_heartbeat_s) / self.heartbeat_interval_s
        )
        if beats <= 0:
            return
        clock = self.cluster.clock
        params = self.cluster.params
        for __ in range(beats):
            clock.charge_ms(_RPC, params.rpc_overhead_ms)
        h.heartbeats += beats
        h.last_heartbeat_s += beats * self.heartbeat_interval_s
