"""Cross-shard lock waiting and deadlock detection.

Each shard keeps its own :class:`~repro.txn.locks.LockManager`, which
only ever sees that shard's *branch* transactions.  A distributed
transaction holding a lock on shard A while waiting on shard B is
invisible to both shards individually — the classic distributed
deadlock.  :class:`GlobalLockTable` is the coordinator-side facade that
makes it visible:

* it speaks the :class:`~repro.service.CooperativeScheduler` lock
  protocol (``attach`` / ``expired_waiters`` / ``effective_timeout_s``
  / ``cancel_wait`` / ``find_deadlock_victim``) in terms of **global**
  transaction ids;
* it adapts each shard's ``attach`` hooks so a branch's lock wait
  suspends the owning *global* session at the scheduler;
* :meth:`find_deadlock_victim` unions the per-shard waits-for graphs,
  mapping every ``(shard, branch txn)`` onto its global transaction,
  and aborts the **youngest** global transaction in any cycle — the
  same victim policy the single-node lock manager applies.

The shard lock managers all run on the coordinator's clock (see
:class:`~repro.dist.node.ShardNode`), so wait durations and timeouts
are directly comparable across shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.storage.rid import Rid
from repro.txn.locks import youngest_in_cycle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.node import ShardNode

#: Synthetic-id stride for branch transactions that were never
#: registered (e.g. loader leftovers): they must stay distinct per
#: shard without colliding with real (positive) global ids.
_SYNTHETIC_STRIDE = 1_000_000


class GlobalLockTable:
    """Coordinator view over every shard's lock manager."""

    def __init__(self, nodes: "list[ShardNode]"):
        self.nodes = nodes
        self._wait: Callable[[int, Rid], None] | None = None
        self._wake: Callable[[int], None] | None = None
        #: (shard_id, branch txn id) -> global txn id.
        self._to_global: dict[tuple[int, int], int] = {}
        #: global txn id -> [(shard_id, branch txn id), ...].
        self._branches: dict[int, list[tuple[int, int]]] = {}

    # -- branch registry ------------------------------------------------

    def register(self, global_id: int, shard_id: int, branch_id: int) -> None:
        """A distributed transaction opened a branch on a shard."""
        self._to_global[(shard_id, branch_id)] = global_id
        self._branches.setdefault(global_id, []).append((shard_id, branch_id))

    def unregister(self, global_id: int) -> None:
        """The distributed transaction finished; drop its mappings."""
        for key in self._branches.pop(global_id, []):
            self._to_global.pop(key, None)

    def clear(self) -> None:
        """A cluster crash wiped all volatile transaction state."""
        self._to_global.clear()
        self._branches.clear()

    def global_of(self, shard_id: int, branch_id: int) -> int:
        """Map a branch to its global transaction; unregistered branches
        get a stable synthetic *negative* id (never a deadlock victim,
        since victims are the youngest = maximum id in the cycle)."""
        mapped = self._to_global.get((shard_id, branch_id))
        if mapped is not None:
            return mapped
        return -(shard_id * _SYNTHETIC_STRIDE + branch_id)

    # -- the scheduler lock protocol ------------------------------------

    def attach(
        self,
        wait: Callable[[int, Rid], None],
        wake: Callable[[int], None],
    ) -> None:
        """Wire the scheduler in, and wire each shard's lock manager to
        translate its branch-local ids through this table."""
        self._wait = wait
        self._wake = wake
        for node in self.nodes:
            self.attach_node(node)

    def detach(self) -> None:
        self._wait = None
        self._wake = None
        for node in self.nodes:
            node.locks.detach()

    def attach_node(self, node: "ShardNode") -> None:
        """Wire one node's lock manager to the attached scheduler.
        Also called for a late-arriving node (a promoted replica): its
        lock manager never saw the original :meth:`attach` — it was a
        standby then — so it would run fail-fast and break the
        scheduler's wait protocol."""
        if self._wait is None or self._wake is None:
            return
        sid = node.shard_id
        wait, wake = self._wait, self._wake
        node.locks.attach(
            lambda txn_id, rid, sid=sid: wait(self.global_of(sid, txn_id), rid),
            lambda txn_id, sid=sid: wake(self.global_of(sid, txn_id)),
        )

    def fail_shard_waiters(self, shard_id: int) -> None:
        """The shard is dying: every branch queued on its locks will
        never be granted.  Remove the queued requests, then wake the
        owning global sessions — each resumes *without* a grant, and its
        ``acquire`` raises the retryable resumed-without-a-grant
        :class:`~repro.errors.LockConflictError`.  Must run before the
        crash wipes the shard's lock state, or the sessions would sleep
        forever on a lock table that no longer exists."""
        node = self.nodes[shard_id]
        waiters = sorted(set(node.locks.waiting_txns()))
        for branch_id in waiters:
            node.locks.cancel_wait(branch_id)
        if self._wake is not None:
            for branch_id in waiters:
                self._wake(self.global_of(shard_id, branch_id))

    def cancel_wait(self, global_id: int) -> None:
        """Remove every queued request of the global transaction, on
        every shard it has a branch on."""
        for shard_id, branch_id in self._branches.get(global_id, []):
            self.nodes[shard_id].locks.cancel_wait(branch_id)

    def expired_waiters(self) -> list[int]:
        """Global transactions whose branch waits have timed out."""
        out: set[int] = set()
        for node in self.nodes:
            for branch_id in node.locks.expired_waiters():
                out.add(self.global_of(node.shard_id, branch_id))
        return sorted(g for g in out if g > 0)

    def effective_timeout_s(self) -> float | None:
        """The tightest effective timeout across shards (per-shard
        transient-fault storms may shrink individual shards')."""
        timeouts = [
            t
            for t in (n.locks.effective_timeout_s() for n in self.nodes)
            if t is not None
        ]
        return min(timeouts) if timeouts else None

    def find_deadlock_victim(self) -> int | None:
        """Union the per-shard waits-for graphs into one global graph
        and return the youngest global transaction in a cycle."""
        graph: dict[int, set[int]] = {}
        for node in self.nodes:
            sid = node.shard_id
            for waiter, holders in node.locks.waits_for().items():
                g_waiter = self.global_of(sid, waiter)
                edges = graph.setdefault(g_waiter, set())
                for holder in holders:
                    g_holder = self.global_of(sid, holder)
                    if g_holder != g_waiter:
                        edges.add(g_holder)
        victim = youngest_in_cycle(graph)
        if victim is not None and victim < 0:
            return None  # a cycle of unregistered branches: not ours
        return victim

    # -- introspection (leak checks) ------------------------------------

    @property
    def lock_count(self) -> int:
        return sum(n.locks.lock_count for n in self.nodes)

    @property
    def waiting_count(self) -> int:
        return sum(n.locks.waiting_count for n in self.nodes)
