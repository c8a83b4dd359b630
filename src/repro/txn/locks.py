"""Read/write locks with FIFO wait queues and deadlock detection.

The simulator is single-threaded at heart, but the multi-client query
service (:mod:`repro.service`) interleaves many sessions cooperatively.
The lock manager therefore supports two modes:

* **fail-fast** (the default, no scheduler attached): an incompatible
  request raises :class:`~repro.errors.LockConflictError` immediately —
  the behaviour the single-client benchmarks always had;
* **wait** (a scheduler attached via :meth:`LockManager.attach`): an
  incompatible request joins a per-rid FIFO wait queue and the caller is
  suspended at the scheduler's next context switch.  Grants are strictly
  FIFO (a later shared request never overtakes an earlier exclusive one,
  so writers cannot starve), sole-holder upgrades take precedence over
  the queue, and a waits-for-graph cycle detector resolves deadlocks by
  aborting the *youngest* transaction in the cycle
  (:class:`~repro.errors.DeadlockError`).  A configurable ``timeout_s``
  (simulated seconds) bounds any wait
  (:class:`~repro.errors.LockTimeoutError`).

The state is two tables, a rid's holders and a rid's waiters, and a rid
has an entry in the second only while somebody waits for it (see
:class:`LockManager`).

Every acquisition and release still charges
:attr:`~repro.simtime.CostParams.lock_us` of bookkeeping — the overhead
the transaction-off loading mode removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import LockConflictError
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.rid import Rid


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


_LOCK = Bucket.LOCK
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE


@dataclass
class LockRequest:
    """One queued (not yet granted) lock request."""

    txn_id: int
    mode: LockMode
    rid: Rid
    enqueued_s: float
    granted: bool = False


#: A rid's holders: ``(txn_id, mode)`` pairs in grant order, each
#: transaction once, at the strongest mode granted to it.
Holders = tuple[tuple[int, LockMode], ...]


class LockManager:
    """Per-rid shared/exclusive locks with optional waiting.

    Two tables hold the state.  :attr:`granted` maps a rid to its
    holders and has an entry only while somebody holds the rid, so an
    uncontended lock is one dict entry and one small tuple; its order is
    the order the rids were first locked in, which is the order
    :meth:`release_all` charges and promotes in.  :attr:`queues` maps a
    rid to its FIFO of waiting :class:`LockRequest` objects and has an entry
    only while the rid has a waiter.  A rid with a waiter always has a
    holder: a request queues only behind one, and a promotion grants the
    head of the queue whenever nobody holds the rid.

    ``attach(wait, wake)`` plugs in a cooperative scheduler: ``wait`` is
    called with ``(txn_id, rid)`` and must suspend the caller until the
    request is granted (returning normally) or aborted (raising
    :class:`~repro.errors.DeadlockError` /
    :class:`~repro.errors.LockTimeoutError`); ``wake`` is called with a
    ``txn_id`` whose queued request has just been granted.

    Snapshot-isolation readers never enter this table at all —
    ``Transaction.read_lock`` is a no-op under ``isolation="si"``, so
    scans cannot contribute to ``waits`` (the measurable zero-lock-wait
    claim); only X-locks (writers, both isolation levels) do.
    """

    def __init__(
        self,
        clock: SimClock,
        params: CostParams,
        timeout_s: float | None = None,
    ):
        self.clock = clock
        self.params = params
        #: Simulated seconds a request may wait before it times out
        #: (``None``: wait forever, rely on deadlock detection).
        self.timeout_s = timeout_s
        #: Optional :class:`~repro.recovery.TransientFaultInjector`:
        #: during one of its seeded *lock-timeout storms* the effective
        #: timeout shrinks, so waiters that would normally be patient
        #: abort in bursts (the transient-fault analogue of a congested
        #: lock service).
        self.injector = None
        #: rid -> its holders (see the class docstring).
        self.granted: dict[Rid, Holders] = {}
        #: rid -> its waiting requests, oldest first.
        self.queues: dict[Rid, list[LockRequest]] = {}
        self._wait: Callable[[int, Rid], None] | None = None
        self._wake: Callable[[int], None] | None = None

    # -- scheduler wiring ---------------------------------------------------

    def attach(
        self,
        wait: Callable[[int, Rid], None],
        wake: Callable[[int], None],
    ) -> None:
        """Enable wait mode (see class docstring)."""
        self._wait = wait
        self._wake = wake

    def detach(self) -> None:
        """Return to fail-fast mode."""
        self._wait = None
        self._wake = None

    # -- acquisition --------------------------------------------------------

    def acquire(self, txn_id: int, rid: Rid, mode: LockMode) -> None:
        """Grant the lock, wait for it, or raise
        :class:`LockConflictError` (fail-fast mode)."""
        self.clock.charge_us(_LOCK, self.params.lock_us)
        mine = ((txn_id, mode),)
        holders = self.granted.setdefault(rid, mine)
        if holders is mine:
            return  # nobody held it, so nobody waits for it
        held = _mode_of(holders, txn_id)
        if held is not None:
            if held is _EXCLUSIVE or mode is _SHARED:
                return  # re-entrant / already stronger
            if len(holders) == 1:
                # S -> X upgrade: takes precedence over the queue, but
                # only once every other holder is gone.
                self.granted[rid] = mine
                return
        elif (
            mode is _SHARED
            and _all_shared(holders)
            and rid not in self.queues  # FIFO: don't overtake a waiter
        ):
            self.granted[rid] = holders + mine
            return
        if self._wait is None:
            raise LockConflictError(
                f"txn {txn_id} requests {mode.value} on {rid} held "
                f"{_strongest(holders).value} by "
                f"{sorted(t for t, __ in holders)}"
            )
        request = LockRequest(txn_id, mode, rid, self.clock.elapsed_s)
        self.queues.setdefault(rid, []).append(request)
        try:
            self._wait(txn_id, rid)
        except BaseException:
            self.cancel_wait(txn_id)
            raise
        if not request.granted:  # pragma: no cover - scheduler contract
            self.cancel_wait(txn_id)
            raise LockConflictError(
                f"txn {txn_id} resumed without a grant on {rid}"
            )

    # -- release / promotion -----------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock held by ``txn_id`` (and any of its queued
        requests); promotes the waiters of each rid it held, in the
        order the rids were locked.  Returns how many locks dropped."""
        if self.queues:
            self.cancel_wait(txn_id)
        granted = self.granted
        queues = self.queues
        charge_us = self.clock.charge_us
        lock_us = self.params.lock_us
        emptied: list[Rid] = []
        released = 0
        # Values are replaced in place as the loop goes; keys are
        # deleted only after it, so each rid keeps its position.
        for rid, holders in granted.items():
            if len(holders) == 1:
                if holders[0][0] != txn_id:
                    continue
                rest: Holders = ()
            else:
                rest = tuple(h for h in holders if h[0] != txn_id)
                if len(rest) == len(holders):
                    continue
            released += 1
            charge_us(_LOCK, lock_us)
            granted[rid] = rest
            if rid in queues:
                self._promote(rid)
            elif not rest:
                emptied.append(rid)
        for rid in emptied:
            del granted[rid]
        return released

    def clear(self) -> None:
        """Drop all lock state without promotion or charges — the lock
        table is volatile and a simulated crash simply loses it."""
        self.granted.clear()
        self.queues.clear()

    def cancel_wait(self, txn_id: int) -> None:
        """Remove every queued (ungranted) request of ``txn_id``."""
        for rid, queue in list(self.queues.items()):
            kept = [req for req in queue if req.txn_id != txn_id]
            if len(kept) != len(queue):
                self.queues[rid] = kept
                self._promote(rid)

    def _promote(self, rid: Rid) -> None:
        """Grant the longest grantable FIFO prefix of ``rid``'s wait
        queue (a rid nobody holds any more grants its head at least),
        and drop the queue once it is empty."""
        queue = self.queues[rid]
        granted = self.granted
        holders = granted[rid]
        while queue:
            head = queue[0]
            held = _mode_of(holders, head.txn_id)
            if held is not None:
                # Waiting upgrade: needs to be the sole holder.
                if len(holders) != 1:
                    break
                holders = ((head.txn_id, _stronger(held, head.mode)),)
            elif not holders:
                holders = ((head.txn_id, head.mode),)
            elif head.mode is _SHARED and _all_shared(holders):
                holders += ((head.txn_id, head.mode),)
            else:
                break
            granted[rid] = holders
            head.granted = True
            queue.pop(0)
            if self._wake is not None:
                self._wake(head.txn_id)
        if not queue:
            del self.queues[rid]

    # -- deadlock / timeout -------------------------------------------------

    def waits_for(self) -> dict[int, set[int]]:
        """The waits-for graph: waiter txn -> txns it waits on (current
        holders plus earlier waiters on the same rid)."""
        graph: dict[int, set[int]] = {}
        for rid, queue in self.queues.items():
            holders = self.granted.get(rid, ())
            ahead: list[int] = []
            for req in queue:
                edges = graph.setdefault(req.txn_id, set())
                edges.update(t for t, __ in holders if t != req.txn_id)
                edges.update(t for t in ahead if t != req.txn_id)
                ahead.append(req.txn_id)
        return graph

    def find_deadlock_victim(self) -> int | None:
        """Detect a waits-for cycle; return the youngest (highest-id)
        transaction in it, or ``None`` when there is no cycle."""
        return youngest_in_cycle(self.waits_for())

    def expired_waiters(self) -> list[int]:
        """Txns whose queued request has waited past the effective
        timeout (``timeout_s``, shrunk during an injected storm)."""
        timeout_s = self.effective_timeout_s()
        if timeout_s is None:
            return []
        now = self.clock.elapsed_s
        return sorted({
            req.txn_id
            for queue in self.queues.values()
            for req in queue
            if now - req.enqueued_s >= timeout_s
        })

    def effective_timeout_s(self) -> float | None:
        """``timeout_s``, tightened by an active lock-timeout storm."""
        if self.injector is None:
            return self.timeout_s
        return self.injector.lock_timeout_s(
            self.timeout_s, self.clock.elapsed_s
        )

    # -- introspection ------------------------------------------------------

    @property
    def lock_count(self) -> int:
        return len(self.granted)

    @property
    def waiting_count(self) -> int:
        return sum(map(len, self.queues.values()))

    def waiting_txns(self) -> Iterable[int]:
        for queue in self.queues.values():
            for req in queue:
                yield req.txn_id


def _mode_of(holders: Holders, txn_id: int) -> LockMode | None:
    """The mode ``txn_id`` holds among ``holders``, or ``None``."""
    for holder, mode in holders:
        if holder == txn_id:
            return mode
    return None


def _all_shared(holders: Holders) -> bool:
    return all(mode is _SHARED for __, mode in holders)


def _strongest(holders: Holders) -> LockMode:
    """The strongest mode granted on a rid (SHARED when none is)."""
    return _SHARED if _all_shared(holders) else _EXCLUSIVE


def _stronger(a: LockMode, b: LockMode) -> LockMode:
    if _EXCLUSIVE in (a, b):
        return _EXCLUSIVE
    return _SHARED


def youngest_in_cycle(graph: dict[int, set[int]]) -> int | None:
    """DFS cycle detection over a waits-for graph; returns the maximum
    id in the first cycle found (deterministic: sorted visit order) or
    ``None``.  One shard's graph and the coordinator's merged graph
    (:mod:`repro.dist.deadlock`) share the victim policy by sharing
    this function."""
    visiting: set[int] = set()
    done: set[int] = set()
    stack: list[int] = []
    for start in sorted(graph):
        if start in done:
            continue
        cycle = _visit(start, graph, visiting, done, stack)
        if cycle is not None:
            return max(cycle)
    return None


def _visit(
    node: int,
    graph: dict[int, set[int]],
    visiting: set[int],
    done: set[int],
    stack: list[int],
) -> list[int] | None:
    """One DFS step of :func:`youngest_in_cycle`.  Not a nested
    function: one that calls itself is a cycle with its own closure
    cell, left for the collector at every stall."""
    visiting.add(node)
    stack.append(node)
    for succ in sorted(graph.get(node, ())):
        if succ in visiting:
            return stack[stack.index(succ):]
        if succ not in done:
            cycle = _visit(succ, graph, visiting, done, stack)
            if cycle is not None:
                return cycle
    visiting.discard(node)
    done.add(node)
    stack.pop()
    return None
