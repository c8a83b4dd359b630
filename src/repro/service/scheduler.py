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
A hand-off is one lock release: each task waits on a lock of its own,
held from its spawn, and handing the baton to it releases that lock;
the handing-over thread then waits on its own.
:meth:`CooperativeScheduler.run` waits the same way on a "done" lock,
released once, when no task is left.

No mutex guards the scheduler's state, by one invariant: *only the
baton holder touches scheduler state* -- the thread of the running
task, or ``run``'s thread while no task runs.  A thread touches the
state only between acquiring its lock and releasing the next one, and
the release is the last thing a hand-off does, so no two threads are
ever inside the scheduler at once.  Everything that reaches it -- yield
points, lock and admission waits, grants, cancels -- runs in session
code, that is, on the baton holder's thread.

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

How a run ended is decided in one place, :func:`ended_by_crash`, for
every mix the scheduler runs.
"""

from __future__ import annotations

import enum
import threading
from traceback import clear_frames
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    DeadlockError,
    LockConflictError,
    LockTimeoutError,
    ServiceError,
    SimulatedCrashError,
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
    ):
        self.task_id = task_id
        self.name = name
        #: The body; deleted once it has run.
        self.fn = fn
        #: Held while the task does not have the baton: released when
        #: the baton is handed to it, and only then.
        self.baton = threading.Lock()
        self.baton.acquire()
        self.state = _NEW
        self.thread: threading.Thread | None = None
        self.result: object = None
        #: What the body raised; :func:`ended_by_crash` takes off the
        #: one it raises.
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

    def __init__(self, clock: SimClock, locks: "LockManager"):
        self.clock = clock
        self.locks = locks
        #: ``run``'s ``on_switch``, held only while it runs.
        self._on_switch: Callable[[Task], None] | None = None
        #: Held, but for the moment the last task's hand-off releases
        #: it to the waiting ``run``.
        self._done = threading.Lock()
        self._done.acquire()
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
        task = Task(len(self._tasks), name, fn)
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
            self._schedule_next()
            self._done.acquire()  # every task is done
            for task in self._tasks:
                if task.thread is not None:
                    task.thread.join()
        finally:
            self._on_switch = None
            locks.detach()
        for task in self._tasks:
            error = task.error
            while error is not None:
                clear_frames(error.__traceback__)
                error = error.__context__
        return list(self._tasks)

    def _task_body(self, task: Task) -> None:
        task.baton.acquire()
        try:
            task.result = task.fn()
        # The trampoline boundary: a session's failure (abort, deadlock,
        # injected crash) is the *result* of its task; ``ended_by_crash``
        # re-raises ``task.error``, so capturing here is delivery, not
        # swallowing.
        # simlint: ok[EXC] task errors are captured and re-raised by ended_by_crash
        except BaseException as exc:  # noqa: BLE001 - reported via .error
            task.error = exc
        finally:
            # As ``threading.Thread`` deletes its target: the body's
            # closures reach whoever owns this scheduler.
            del task.fn
            task.state = _DONE
            self._current = None
            self._schedule_next()

    # -- yield points -------------------------------------------------------

    def yield_point(self) -> None:
        """Hand the baton to the next ready task (no-op when this is the
        only live task).  Safe to call from any depth of session code."""
        me = self._current
        if me is None:
            return  # not inside a scheduled slice (e.g. warm-up I/O)
        me.state = _READY
        self._current = None
        self._schedule_next()
        me.baton.acquire()

    def batch_point(self) -> None:
        """Yield point taken between operator batches of a pipelined
        query, so a long scan hands the baton over every ``batch_size``
        rows instead of only at page faults.  A no-op outside a
        scheduled slice (immediate mode, warm-up)."""
        if self._current is None:
            return
        self.batch_yields += 1
        self.yield_point()

    def wait_for_lock(self, txn_id: int, rid: Rid) -> None:
        """Block the current task until its lock request is granted.

        Raises the abort exception when this task is chosen as a
        deadlock/timeout victim (the ``LockManager.attach`` contract).
        Attached only while :meth:`run` runs, so only a task calls it."""
        me = self._current
        started_s = self.clock.elapsed_s
        me.lock_waits += 1
        try:
            self._block(me, self._blocked_txns, txn_id)
        finally:
            me.lock_wait_s += self.clock.elapsed_s - started_s

    def notify_granted(self, txn_id: int) -> None:
        """A queued request was granted: make its task ready again."""
        self._unblock(self._blocked_txns, txn_id)

    def wait_for_admission(self, session_id: int) -> None:
        """Block the current task until the admission gate promotes it
        (:meth:`notify_admitted`) — the admission-queue analogue of
        :meth:`wait_for_lock`.  Raises the abort exception when the
        waiter is cancelled while queued.  The gate calls it only
        inside a scheduled slice."""
        self._block(self._current, self._blocked_admission, session_id)

    def notify_admitted(self, session_id: int) -> None:
        """A queued session reached the head of the admission queue."""
        self._unblock(self._blocked_admission, session_id)

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
        if task is None or task.state is not _BLOCKED:
            return False
        if txn_id is not None and self._blocked_txns.get(txn_id) is task:
            self.locks.cancel_wait(txn_id)
        task.abort_exc = exc
        task.state = _READY
        return True

    def in_slice(self) -> bool:
        """Is the calling code running inside a scheduled slice?"""
        return self._current is not None

    # -- internals ----------------------------------------------------------

    def _block(self, me: Task, waiting: dict[int, Task], key: int) -> None:
        """Park ``me`` in ``waiting`` under ``key`` until it is made ready
        again and handed the baton; raise its abort exception, if it was
        given one meanwhile."""
        me.state = _BLOCKED
        me.abort_exc = None
        waiting[key] = me
        self._current = None
        self._schedule_next()
        me.baton.acquire()
        waiting.pop(key, None)
        if me.abort_exc is not None:
            exc, me.abort_exc = me.abort_exc, None
            try:
                raise exc
            finally:
                # Its traceback holds this frame: no cycle through a
                # local once the caller has handled it.
                del exc

    def _unblock(self, waiting: dict[int, Task], key: int) -> None:
        """Make the task parked under ``key`` ready again, if it still
        waits there."""
        task = waiting.get(key)
        if task is not None and task.state is _BLOCKED:
            task.state = _READY

    def _schedule_next(self) -> None:
        """Pick the next task to run and hand it the baton; the caller
        holds the baton and gave it up (``_current`` is ``None``).  The
        release is the last thing it does: from there on the task it
        picked -- or ``run``, when no task is left -- holds it."""
        self._expire_timeouts()
        task = self._next_ready()
        if task is None and any(
            t.state is _BLOCKED for t in self._tasks
        ):
            self._resolve_stall()
            task = self._next_ready()
        if task is None:
            self._done.release()  # every task is done: hand run() the end
            return
        task.state = _RUNNING
        task.switches += 1
        self.context_switches += 1
        self._current = task
        if self._on_switch is not None:
            self._on_switch(task)
        task.baton.release()

    def _next_ready(self) -> Task | None:
        n = len(self._tasks)
        for offset in range(n):
            task = self._tasks[(self._rr_next + offset) % n]
            if task.state is _READY:
                self._rr_next = (task.task_id + 1) % n
                return task
        return None

    def _expire_timeouts(self) -> None:
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


#: What else a crashed run's tasks may die of: the crash itself, or a
#: lock wait behind a holder the crash killed, ended as a stall
#: (``ServiceError``) or as a timeout or deadlock (``LockConflictError``).
_CRASH_FALLOUT = (SimulatedCrashError, ServiceError, LockConflictError)


def ended_by_crash(tasks: list[Task]) -> bool:
    """The one outcome rule of a scheduled run: did it end by a crash?

    A run crashed if any task died of
    :class:`~repro.errors.SimulatedCrashError`; its other tasks may die
    only of crash fallout (:data:`_CRASH_FALLOUT`).  Any other error of
    a crashed run, and the first task error of a run that did not crash,
    is raised -- taken off its task first, so the raised error's frames
    (this one and its caller's) close no cycle through the task."""
    crashed = any(isinstance(t.error, SimulatedCrashError) for t in tasks)
    expected = _CRASH_FALLOUT if crashed else ()
    for task in tasks:
        error = task.error
        if error is not None and not isinstance(error, expected):
            task.error = None
            try:
                raise error
            finally:
                del error
    return crashed


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
