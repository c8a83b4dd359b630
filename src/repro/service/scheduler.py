"""Deterministic cooperative scheduling of concurrent sessions.

The simulator charges all costs to one :class:`~repro.simtime.SimClock`,
so "concurrency" means *deterministic interleaving*: every session runs
in its own thread, but exactly one thread holds the baton at any moment
and the baton is handed over only at explicit yield points — client page
faults / RPCs (the :attr:`ClientServerSystem.on_fault` hook), lock
waits, operator batch boundaries (:meth:`batch_point`, reached every
``batch_size`` rows of a pipelined query), and voluntary
:meth:`yield_point` calls.  Switch order is strict
round-robin over ready tasks, so a given workload on a given database
interleaves — and therefore costs — exactly the same way every run.
A hand-off wakes one thread, the one it hands the baton to: each task
waits on its own condition over the scheduler's one lock, and
:meth:`CooperativeScheduler.run` is woken once, when no task is left.

Lock waiting plugs in through :meth:`wait_for_lock` / ``notify_granted``
(the :meth:`repro.txn.locks.LockManager.attach` contract).  When every
live task is blocked the scheduler resolves the stall: first it aborts
waiters whose simulated wait exceeded the lock timeout
(:class:`~repro.errors.LockTimeoutError`), then it asks the lock manager
for a waits-for cycle and aborts the youngest transaction in it
(:class:`~repro.errors.DeadlockError`).  The victim's thread resumes
with the exception raised at its wait point.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    DeadlockError,
    LockConflictError,
    LockTimeoutError,
    ServiceError,
)
from repro.simtime import SimClock
from repro.storage.rid import Rid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.txn.locks import LockManager


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Task:
    """One schedulable session body."""

    def __init__(
        self,
        task_id: int,
        name: str,
        fn: Callable[[], object],
        wake: threading.Condition,
    ):
        self.task_id = task_id
        self.name = name
        self.fn = fn
        #: Notified when the baton is handed to this task, and only then.
        self.wake = wake
        self.state = TaskState.NEW
        self.thread: threading.Thread | None = None
        self.result: object = None
        self.error: BaseException | None = None
        #: Pending exception to raise at the task's lock-wait point
        #: (deadlock / timeout victim).
        self.abort_exc: BaseException | None = None
        #: Simulated seconds spent waiting for locks.
        self.lock_wait_s = 0.0
        #: Times this task blocked on a lock (SI scans must show zero).
        self.lock_waits = 0
        self.switches = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} {self.state.value}>"


class CooperativeScheduler:
    """Round-robin baton scheduler over session threads."""

    def __init__(
        self,
        clock: SimClock,
        locks: "LockManager | None" = None,
        on_switch: Callable[[Task], None] | None = None,
    ):
        self.clock = clock
        self.locks = locks
        #: Called (by the handing-over thread) whenever a new task is
        #: about to run — the query service swaps client caches here.
        self.on_switch = on_switch
        #: One lock under every condition: ``_cv``, on which ``run``
        #: waits until no task is left, and each task's ``wake``.
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._tasks: list[Task] = []
        self._current: Task | None = None
        self._rr_next = 0  # round-robin cursor
        self._blocked_txns: dict[int, Task] = {}
        #: session id -> task blocked in the admission gate's queue.
        self._blocked_admission: dict[int, Task] = {}
        self.context_switches = 0
        #: Yields taken at operator batch boundaries (see batch_point).
        self.batch_yields = 0
        if locks is not None:
            locks.attach(self.wait_for_lock, self.notify_granted)

    # -- task management ----------------------------------------------------

    def spawn(self, name: str, fn: Callable[[], object]) -> Task:
        """Register a task; it starts running only inside :meth:`run`."""
        task = Task(
            len(self._tasks), name, fn, threading.Condition(self._lock)
        )
        self._tasks.append(task)
        return task

    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks)

    # -- the main loop ------------------------------------------------------

    def run(self) -> list[Task]:
        """Run every spawned task to completion; returns the tasks.

        Task exceptions are captured on ``task.error`` (the scheduler
        itself only raises for scheduler bugs, e.g. an unresolvable
        stall, which :meth:`_resolve_stall` turns into
        :class:`~repro.errors.ServiceError`)."""
        if not self._tasks:
            return []
        for task in self._tasks:
            if task.state is TaskState.NEW:
                task.state = TaskState.READY
                task.thread = threading.Thread(
                    target=self._task_body, args=(task,), daemon=True,
                    name=f"repro-session-{task.name}",
                )
                task.thread.start()
        with self._cv:
            self._schedule_next()
            while any(t.state is not TaskState.DONE for t in self._tasks):
                self._cv.wait()
        for task in self._tasks:
            if task.thread is not None:
                task.thread.join()
        return list(self._tasks)

    def _task_body(self, task: Task) -> None:
        with self._cv:
            while self._current is not task:
                task.wake.wait()
        try:
            task.result = task.fn()
        # The trampoline boundary: a session's failure (abort, deadlock,
        # injected crash) is the *result* of its task; the workload
        # driver re-raises ``task.error``, so capturing here is delivery,
        # not swallowing.
        # simlint: ok[EXC] task errors are captured and re-raised by the driver
        except BaseException as exc:  # noqa: BLE001 - reported via .error
            task.error = exc
        finally:
            with self._cv:
                task.state = TaskState.DONE
                self._current = None
                self._schedule_next()

    # -- yield points -------------------------------------------------------

    def yield_point(self) -> None:
        """Hand the baton to the next ready task (no-op when this is the
        only live task).  Safe to call from any depth of session code."""
        with self._cv:
            me = self._current
            if me is None:
                return  # not inside a scheduled slice (e.g. warm-up I/O)
            me.state = TaskState.READY
            self._current = None
            self._schedule_next()
            while self._current is not me:
                me.wake.wait()

    def batch_point(self) -> None:
        """Yield point taken between operator batches of a pipelined
        query, so a long scan hands the baton over every ``batch_size``
        rows instead of only at page faults.  A no-op outside a
        scheduled slice (immediate mode, warm-up)."""
        with self._cv:
            if self._current is None:
                return
        self.batch_yields += 1
        self.yield_point()

    def wait_for_lock(self, txn_id: int, rid: Rid) -> None:
        """Block the current task until its lock request is granted.

        Raises the abort exception when this task is chosen as a
        deadlock/timeout victim (the ``LockManager.attach`` contract)."""
        with self._cv:
            me = self._current
            if me is None:
                # Not inside a scheduled slice (e.g. the serve shell's
                # immediate mode): nobody to wait for, so fail fast.
                raise LockConflictError(
                    f"txn {txn_id}: lock on {rid} is held by another "
                    "session (immediate mode is fail-fast)"
                )
            started_s = self.clock.elapsed_s
            me.state = TaskState.BLOCKED
            me.abort_exc = None
            me.lock_waits += 1
            self._blocked_txns[txn_id] = me
            self._current = None
            self._schedule_next()
            while self._current is not me:
                me.wake.wait()
            self._blocked_txns.pop(txn_id, None)
            me.lock_wait_s += self.clock.elapsed_s - started_s
            if me.abort_exc is not None:
                exc, me.abort_exc = me.abort_exc, None
                raise exc

    def notify_granted(self, txn_id: int) -> None:
        """A queued request was granted: make its task ready again."""
        with self._cv:  # re-entrant (Condition uses an RLock)
            task = self._blocked_txns.get(txn_id)
            if task is not None and task.state is TaskState.BLOCKED:
                task.state = TaskState.READY

    def wait_for_admission(self, session_id: int) -> None:
        """Block the current task until the admission gate promotes it
        (:meth:`notify_admitted`) — the admission-queue analogue of
        :meth:`wait_for_lock`.  Raises the abort exception when the
        waiter is cancelled while queued."""
        with self._cv:
            me = self._current
            if me is None:
                raise ServiceError(
                    "wait_for_admission outside a scheduled slice"
                )
            me.state = TaskState.BLOCKED
            me.abort_exc = None
            self._blocked_admission[session_id] = me
            self._current = None
            self._schedule_next()
            while self._current is not me:
                me.wake.wait()
            self._blocked_admission.pop(session_id, None)
            if me.abort_exc is not None:
                exc, me.abort_exc = me.abort_exc, None
                raise exc

    def notify_admitted(self, session_id: int) -> None:
        """A queued session reached the head of the admission queue."""
        with self._cv:
            task = self._blocked_admission.get(session_id)
            if task is not None and task.state is TaskState.BLOCKED:
                task.state = TaskState.READY

    def interrupt(
        self,
        task: Task | None,
        exc: BaseException,
        txn_id: int | None = None,
    ) -> bool:
        """Deliver ``exc`` at ``task``'s wait point *now*, if it is
        blocked (lock wait or admission wait); returns whether delivery
        happened.  A running/ready task cannot be interrupted here — its
        flag-based checkpoint will catch it instead."""
        with self._cv:
            if task is None or task.state is not TaskState.BLOCKED:
                return False
            if txn_id is not None and self.locks is not None:
                if self._blocked_txns.get(txn_id) is task:
                    self.locks.cancel_wait(txn_id)
            task.abort_exc = exc
            task.state = TaskState.READY
            return True

    def in_slice(self) -> bool:
        """Is the calling code running inside a scheduled slice?"""
        with self._cv:
            return self._current is not None

    # -- internals ----------------------------------------------------------

    def _schedule_next(self) -> None:
        """Pick the next task to run (caller holds the condition)."""
        self._expire_timeouts()
        task = self._next_ready()
        if task is None and any(
            t.state is TaskState.BLOCKED for t in self._tasks
        ):
            self._resolve_stall()
            task = self._next_ready()
        if task is None:
            self._cv.notify()  # every task is done: wake run()
            return
        task.state = TaskState.RUNNING
        task.switches += 1
        self.context_switches += 1
        self._current = task
        if self.on_switch is not None:
            self.on_switch(task)
        task.wake.notify()

    def _next_ready(self) -> Task | None:
        n = len(self._tasks)
        for offset in range(n):
            task = self._tasks[(self._rr_next + offset) % n]
            if task.state is TaskState.READY:
                self._rr_next = (task.task_id + 1) % n
                return task
        return None

    def _expire_timeouts(self) -> None:
        if self.locks is None:
            return
        expired = self.locks.expired_waiters()
        if not expired:
            return
        # The effective timeout may be tightened by an injected
        # lock-timeout storm (see LockManager.effective_timeout_s).
        timeout_s = self.locks.effective_timeout_s()
        for txn_id in expired:
            task = self._blocked_txns.get(txn_id)
            if task is None or task.state is not TaskState.BLOCKED:
                continue
            self.locks.cancel_wait(txn_id)
            task.abort_exc = LockTimeoutError(
                f"txn {txn_id} ({task.name}) waited longer than "
                f"{timeout_s:g} simulated s for a lock"
            )
            task.state = TaskState.READY

    def _resolve_stall(self) -> None:
        """Every live task is blocked: break the tie or report a bug."""
        if self.locks is not None:
            victim = self.locks.find_deadlock_victim()
            if victim is not None:
                task = self._blocked_txns.get(victim)
                if task is not None:
                    self.locks.cancel_wait(victim)
                    task.abort_exc = DeadlockError(
                        f"txn {victim} ({task.name}) chosen as deadlock "
                        "victim (youngest in the waits-for cycle)"
                    )
                    task.state = TaskState.READY
                    return
        # No cycle and no timeout fired: a genuine stall (e.g. a lock
        # holder died without releasing).  Unwind every blocked task
        # with a ServiceError rather than hanging the run.
        blocked = [
            t.name for t in self._tasks if t.state is TaskState.BLOCKED
        ]
        for task in self._tasks:
            if task.state is TaskState.BLOCKED:
                task.abort_exc = ServiceError(
                    f"scheduler stalled: tasks {blocked} blocked with no "
                    "deadlock cycle and no timeout configured"
                )
                task.state = TaskState.READY
