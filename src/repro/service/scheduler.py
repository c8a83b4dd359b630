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
(the :meth:`repro.txn.locks.LockManager.attach` contract), for the
duration of :meth:`CooperativeScheduler.run`.  When every
live task is blocked the scheduler resolves the stall: first it aborts
waiters whose simulated wait exceeded the lock timeout
(:class:`~repro.errors.LockTimeoutError`), then it asks the lock manager
for a waits-for cycle and aborts the youngest transaction in it
(:class:`~repro.errors.DeadlockError`).  The victim's thread resumes
with the exception raised at its wait point.

Admission waiting plugs in the same way, through :meth:`wait_for_admission`
/ ``notify_admitted``: the :class:`AdmissionGate` lets at most
``max_active`` sessions run operations at once and queues the rest FIFO
in a real ``BLOCKED`` state.  Waiters hold no locks (admission wraps
whole operations), so an admission wait never extends a deadlock cycle.
"""

from __future__ import annotations

import enum
import threading
from traceback import clear_frames
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ServiceError,
)
from repro.simtime import SimClock
from repro.storage.rid import Rid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import Session
    from repro.txn.locks import LockManager


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


_NEW = TaskState.NEW
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_BLOCKED = TaskState.BLOCKED
_DONE = TaskState.DONE


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
        #: The body; deleted once it has run.
        self.fn = fn
        #: Notified when the baton is handed to this task, and only then.
        self.wake = wake
        self.state = _NEW
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

    def __init__(self, clock: SimClock, locks: "LockManager | None" = None):
        self.clock = clock
        self.locks = locks
        #: ``run``'s ``on_switch``, held only while it runs.
        self._on_switch: Callable[[Task], None] | None = None
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

    # -- task management ----------------------------------------------------

    def spawn(self, name: str, fn: Callable[[], object]) -> Task:
        """Register a task; it starts running only inside :meth:`run`."""
        task = Task(
            len(self._tasks), name, fn, threading.Condition(self._lock)
        )
        self._tasks.append(task)
        return task

    # -- the main loop ------------------------------------------------------

    def run(
        self, on_switch: Callable[[Task], None] | None = None
    ) -> list[Task]:
        """Run every spawned task to completion; returns the tasks.

        ``on_switch`` is called (by the handing-over thread) whenever a
        new task is about to run -- the query service swaps client
        caches there.  It and the lock manager's wait hooks are held
        only for the duration: whoever owns this scheduler owns them, so
        keeping them past the run would close a reference cycle
        (docs/architecture.md, "Who may hold whom").  Outside a run the
        lock manager is fail-fast.

        Task exceptions are captured on ``task.error`` (the scheduler
        itself only raises for scheduler bugs, e.g. an unresolvable
        stall, which :meth:`_resolve_stall` turns into
        :class:`~repro.errors.ServiceError`); once the threads are
        joined, their tracebacks keep file and line but no frame's
        locals, which would hold the task."""
        if not self._tasks:
            return []
        locks = self.locks
        self._on_switch = on_switch
        if locks is not None:
            locks.attach(self.wait_for_lock, self.notify_granted)
        try:
            for task in self._tasks:
                if task.state is _NEW:
                    task.state = _READY
                    task.thread = threading.Thread(
                        target=self._task_body, args=(task,), daemon=True,
                        name=f"repro-session-{task.name}",
                    )
                    task.thread.start()
            with self._cv:
                self._schedule_next()
                while any(t.state is not _DONE for t in self._tasks):
                    self._cv.wait()
            for task in self._tasks:
                if task.thread is not None:
                    task.thread.join()
        finally:
            self._on_switch = None
            if locks is not None:
                locks.detach()
        for task in self._tasks:
            error = task.error
            while error is not None:
                clear_frames(error.__traceback__)
                error = error.__context__
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
            # As ``threading.Thread`` deletes its target: the body's
            # closures reach whoever owns this scheduler.
            del task.fn
            with self._cv:
                task.state = _DONE
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
            me.state = _READY
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
        deadlock/timeout victim (the ``LockManager.attach`` contract).
        Attached only while :meth:`run` runs, so only a task calls it."""
        with self._cv:
            me = self._current
            started_s = self.clock.elapsed_s
            me.state = _BLOCKED
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
                try:
                    raise exc
                finally:
                    # Its traceback holds this frame: no cycle through
                    # a local once the caller has handled it.
                    del exc

    def notify_granted(self, txn_id: int) -> None:
        """A queued request was granted: make its task ready again."""
        with self._cv:  # re-entrant (Condition uses an RLock)
            task = self._blocked_txns.get(txn_id)
            if task is not None and task.state is _BLOCKED:
                task.state = _READY

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
            me.state = _BLOCKED
            me.abort_exc = None
            self._blocked_admission[session_id] = me
            self._current = None
            self._schedule_next()
            while self._current is not me:
                me.wake.wait()
            self._blocked_admission.pop(session_id, None)
            if me.abort_exc is not None:
                exc, me.abort_exc = me.abort_exc, None
                try:
                    raise exc
                finally:
                    del exc  # as in wait_for_lock

    def notify_admitted(self, session_id: int) -> None:
        """A queued session reached the head of the admission queue."""
        with self._cv:
            task = self._blocked_admission.get(session_id)
            if task is not None and task.state is _BLOCKED:
                task.state = _READY

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
            if task is None or task.state is not _BLOCKED:
                return False
            if txn_id is not None and self.locks is not None:
                if self._blocked_txns.get(txn_id) is task:
                    self.locks.cancel_wait(txn_id)
            task.abort_exc = exc
            task.state = _READY
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
            t.state is _BLOCKED for t in self._tasks
        ):
            self._resolve_stall()
            task = self._next_ready()
        if task is None:
            self._cv.notify()  # every task is done: wake run()
            return
        task.state = _RUNNING
        task.switches += 1
        self.context_switches += 1
        self._current = task
        if self._on_switch is not None:
            self._on_switch(task)
        task.wake.notify()

    def _next_ready(self) -> Task | None:
        n = len(self._tasks)
        for offset in range(n):
            task = self._tasks[(self._rr_next + offset) % n]
            if task.state is _READY:
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
            if task is None or task.state is not _BLOCKED:
                continue
            self.locks.cancel_wait(txn_id)
            task.abort_exc = LockTimeoutError(
                f"txn {txn_id} ({task.name}) waited longer than "
                f"{timeout_s:g} simulated s for a lock"
            )
            task.state = _READY

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
                    task.state = _READY
                    return
        # No cycle and no timeout fired: a genuine stall (e.g. a lock
        # holder died without releasing).  Unwind every blocked task
        # with a ServiceError rather than hanging the run.
        blocked = [
            t.name for t in self._tasks if t.state is _BLOCKED
        ]
        for task in self._tasks:
            if task.state is _BLOCKED:
                task.abort_exc = ServiceError(
                    f"scheduler stalled: tasks {blocked} blocked with no "
                    "deadlock cycle and no timeout configured"
                )
                task.state = _READY


class AdmissionGate:
    """Max-concurrent-sessions gate with a FIFO wait queue.

    ``enter`` admits immediately when a slot is free *and* nobody is
    queued ahead (strict FIFO — late arrivals cannot overtake), else
    blocks the calling task until ``leave`` promotes it.  Outside a
    scheduled slice (immediate mode, warm-up) the gate is a no-op
    pass-through: with no scheduler there is nobody to queue behind.
    """

    def __init__(self, scheduler: CooperativeScheduler, max_active: int):
        if max_active < 1:
            raise ServiceError(f"max_active must be >= 1, got {max_active}")
        self.scheduler = scheduler
        self.max_active = max_active
        self._active: set[int] = set()
        self._queue: list[int] = []
        #: Deepest the wait queue ever got.
        self.max_queue_depth = 0
        #: Admissions that had to queue first.
        self.queued_admissions = 0
        #: Total admissions (queued or not).
        self.admissions = 0

    def enter(self, session: "Session") -> float:
        """Admit ``session``; returns simulated seconds spent queued."""
        sid = session.session_id
        if sid in self._active:
            raise ServiceError(
                f"session {session.name!r} entered the admission gate twice"
            )
        if not self.scheduler.in_slice():
            self._active.add(sid)
            self.admissions += 1
            return 0.0
        if len(self._active) < self.max_active and not self._queue:
            self._active.add(sid)
            self.admissions += 1
            return 0.0
        self._queue.append(sid)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self.queued_admissions += 1
        started_s = self.scheduler.clock.elapsed_s
        try:
            self.scheduler.wait_for_admission(sid)
        except BaseException:
            # Cancelled (or otherwise unwound) while queued: withdraw so
            # the queue cannot block on a corpse.
            self.withdraw(sid)
            raise
        # leave() moved us from the queue into the active set already.
        self.admissions += 1
        return self.scheduler.clock.elapsed_s - started_s

    def leave(self, session: "Session") -> None:
        self._active.discard(session.session_id)
        self._promote()

    def withdraw(self, sid: int) -> None:
        """Remove a session wherever it is (queued or active)."""
        if sid in self._queue:
            self._queue.remove(sid)
        else:
            self._active.discard(sid)
        self._promote()

    def _promote(self) -> None:
        while self._queue and len(self._active) < self.max_active:
            head = self._queue.pop(0)
            self._active.add(head)
            self.scheduler.notify_admitted(head)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)
