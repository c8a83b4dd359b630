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

Every acquisition and release still charges
:attr:`~repro.simtime.CostParams.lock_us` of bookkeeping — the overhead
the transaction-off loading mode removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import LockConflictError
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.rid import Rid


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class LockRequest:
    """One queued (not yet granted) lock request."""

    txn_id: int
    mode: LockMode
    rid: Rid
    enqueued_s: float
    granted: bool = False


@dataclass
class _LockState:
    """Grant table + wait queue for one rid."""

    #: txn id -> strongest mode granted to that transaction.
    granted: dict[int, LockMode] = field(default_factory=dict)
    queue: list[LockRequest] = field(default_factory=list)

    @property
    def mode(self) -> LockMode:
        """Strongest granted mode (SHARED when empty)."""
        if LockMode.EXCLUSIVE in self.granted.values():
            return LockMode.EXCLUSIVE
        return LockMode.SHARED


class LockManager:
    """Per-rid shared/exclusive locks with optional waiting.

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
        self._locks: dict[Rid, _LockState] = {}
        self._wait: Callable[[int, Rid], None] | None = None
        self._wake: Callable[[int], None] | None = None
        #: Requests that could not be granted immediately (queued waits
        #: in scheduler mode, fail-fast conflicts otherwise).
        self.waits = 0

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
        self.clock.charge_us(Bucket.LOCK, self.params.lock_us)
        state = self._locks.get(rid)
        if state is None:
            state = self._locks[rid] = _LockState()
        if self._grantable_now(state, txn_id, mode):
            held = state.granted.get(txn_id)
            state.granted[txn_id] = (
                mode if held is None else self._stronger(held, mode)
            )
            return
        self.waits += 1
        if self._wait is None:
            raise LockConflictError(
                f"txn {txn_id} requests {mode.value} on {rid} held "
                f"{state.mode.value} by {sorted(state.granted)}"
            )
        request = LockRequest(txn_id, mode, rid, self.clock.elapsed_s)
        state.queue.append(request)
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

    def _grantable_now(
        self, state: _LockState, txn_id: int, mode: LockMode
    ) -> bool:
        """Can this fresh request be granted without queueing?"""
        held = state.granted.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # re-entrant / already stronger
            # S -> X upgrade: takes precedence over the queue, but only
            # once every other holder is gone.
            return set(state.granted) == {txn_id}
        if state.granted:
            return (
                mode is LockMode.SHARED
                and state.mode is LockMode.SHARED
                and not state.queue  # FIFO: don't overtake a waiter
            )
        return not state.queue

    # -- release / promotion -----------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock held by ``txn_id`` (and any of its queued
        requests); promotes waiters.  Returns how many locks dropped."""
        self.cancel_wait(txn_id)
        released = 0
        for rid in list(self._locks):
            state = self._locks[rid]
            if txn_id in state.granted:
                del state.granted[txn_id]
                released += 1
                self.clock.charge_us(Bucket.LOCK, self.params.lock_us)
            self._promote(rid)
        return released

    def clear(self) -> None:
        """Drop all lock state without promotion or charges — the lock
        table is volatile and a simulated crash simply loses it."""
        self._locks.clear()

    def cancel_wait(self, txn_id: int) -> None:
        """Remove every queued (ungranted) request of ``txn_id``."""
        for rid in list(self._locks):
            state = self._locks[rid]
            before = len(state.queue)
            state.queue = [
                req for req in state.queue if req.txn_id != txn_id
            ]
            if len(state.queue) != before:
                self._promote(rid)

    def _promote(self, rid: Rid) -> None:
        """Grant the longest grantable FIFO prefix of the wait queue."""
        state = self._locks.get(rid)
        if state is None:
            return
        while state.queue:
            head = state.queue[0]
            held = state.granted.get(head.txn_id)
            if held is not None:
                # Waiting upgrade: needs to be the sole holder.
                if set(state.granted) != {head.txn_id}:
                    break
                state.granted[head.txn_id] = self._stronger(held, head.mode)
            elif not state.granted:
                state.granted[head.txn_id] = head.mode
            elif (
                head.mode is LockMode.SHARED
                and state.mode is LockMode.SHARED
            ):
                state.granted[head.txn_id] = head.mode
            else:
                break
            head.granted = True
            state.queue.pop(0)
            if self._wake is not None:
                self._wake(head.txn_id)
        if not state.granted and not state.queue:
            del self._locks[rid]

    # -- deadlock / timeout -------------------------------------------------

    def waits_for(self) -> dict[int, set[int]]:
        """The waits-for graph: waiter txn -> txns it waits on (current
        holders plus earlier waiters on the same rid)."""
        graph: dict[int, set[int]] = {}
        for state in self._locks.values():
            ahead: list[int] = []
            for req in state.queue:
                edges = graph.setdefault(req.txn_id, set())
                edges.update(t for t in state.granted if t != req.txn_id)
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
        out: list[int] = []
        for state in self._locks.values():
            for req in state.queue:
                if now - req.enqueued_s >= timeout_s:
                    out.append(req.txn_id)
        return sorted(set(out))

    def effective_timeout_s(self) -> float | None:
        """``timeout_s``, tightened by an active lock-timeout storm."""
        if self.injector is None:
            return self.timeout_s
        return self.injector.lock_timeout_s(
            self.timeout_s, self.clock.elapsed_s
        )

    # -- introspection ------------------------------------------------------

    def held(self, rid: Rid) -> tuple[LockMode, set[int]] | None:
        state = self._locks.get(rid)
        if state is None or not state.granted:
            return None
        return state.mode, set(state.granted)

    def waiters(self, rid: Rid) -> list[tuple[int, LockMode]]:
        """The FIFO wait queue for one rid, as (txn, mode) pairs."""
        state = self._locks.get(rid)
        if state is None:
            return []
        return [(req.txn_id, req.mode) for req in state.queue]

    @property
    def lock_count(self) -> int:
        return sum(1 for s in self._locks.values() if s.granted)

    @property
    def waiting_count(self) -> int:
        return sum(len(s.queue) for s in self._locks.values())

    def waiting_txns(self) -> Iterable[int]:
        for state in self._locks.values():
            for req in state.queue:
                yield req.txn_id

    @staticmethod
    def _stronger(a: LockMode, b: LockMode) -> LockMode:
        if LockMode.EXCLUSIVE in (a, b):
            return LockMode.EXCLUSIVE
        return LockMode.SHARED


def youngest_in_cycle(graph: dict[int, set[int]]) -> int | None:
    """DFS cycle detection over a waits-for graph; returns the maximum
    id in the first cycle found (deterministic: sorted visit order) or
    ``None``.  One shard's graph and the coordinator's merged graph
    (:mod:`repro.dist.deadlock`) share the victim policy by sharing
    this function."""
    visiting: set[int] = set()
    done: set[int] = set()
    stack: list[int] = []

    def visit(node: int) -> list[int] | None:
        visiting.add(node)
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if succ in visiting:
                return stack[stack.index(succ):]
            if succ not in done:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        visiting.discard(node)
        done.add(node)
        stack.pop()
        return None

    for start in sorted(graph):
        if start in done:
            continue
        cycle = visit(start)
        if cycle is not None:
            return max(cycle)
    return None
