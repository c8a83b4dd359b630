"""Resource governance: budgets, cancellation, retry policy, admission.

The service's cooperative scheduler already forces every session through
frequent yield points — client page faults, operator batch boundaries,
lock waits.  The :class:`ResourceGovernor` piggybacks on exactly those
points to give the service the reaction half of a multi-client
benchmark:

* **budgets** (:class:`QueryBudget`) bound what one statement may
  consume — client-cache page faults, simulated busy seconds, peak live
  pipeline rows, statement wall time on the shared timeline.  Exceeding
  a bound raises
  :class:`~repro.errors.BudgetExceededError` (or its subclass
  :class:`~repro.errors.StatementTimeoutError`); a budget *exactly*
  exhausted on the final batch completes normally.
* **cancellation** — :meth:`ResourceGovernor.cancel` flags a session; the
  flag is converted into :class:`~repro.errors.QueryCancelledError` at
  the victim's next check point.  A victim blocked in a lock or
  admission wait is interrupted immediately
  (:meth:`~repro.service.scheduler.CooperativeScheduler.interrupt`), so
  cancellation never waits for a lock to clear.
* **retry policy** (:class:`RetryPolicy`) — seeded exponential backoff
  with jitter.  *Which* failures are retried, and how often, is the
  business of the one driver that applies it,
  :func:`repro.service.workload.session_loop`.
* **admission control** (:class:`AdmissionGate`) — at most
  ``max_active`` sessions run operations concurrently; the rest queue
  FIFO in a real scheduler ``BLOCKED`` state.  Waiters hold no locks
  (admission wraps whole operations), so admission waits can never
  extend a deadlock cycle.  Queue depth and per-session wait time are
  metered.

Everything here raises :class:`~repro.errors.GovernorError` subclasses,
which deliberately do **not** descend from ``LockConflictError`` — a
governed query was stopped on purpose and must not be auto-retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING

from repro.errors import (
    BudgetExceededError,
    QueryCancelledError,
    ServiceError,
    StatementTimeoutError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.scheduler import CooperativeScheduler
    from repro.service.service import QueryService, Session


@dataclass(frozen=True)
class QueryBudget:
    """Resource bounds for one statement.

    ``None`` disarms a bound.  Bounds trip only when *strictly*
    exceeded, so a query that lands exactly on its budget with its last
    batch completes.
    """

    #: Client-cache page faults (the pages a query actually pulled).
    max_pages: int | None = None
    #: Simulated seconds charged while the session held the baton.
    max_busy_s: float | None = None
    #: Peak live rows buffered across the operator tree.
    max_live_rows: int | None = None
    #: Statement bound on the *shared* timeline (includes time consumed
    #: by other sessions while this statement was in flight) — the
    #: classic statement timeout.
    statement_timeout_s: float | None = None

    @property
    def armed(self) -> bool:
        return any(
            v is not None
            for v in (
                self.max_pages,
                self.max_busy_s,
                self.max_live_rows,
                self.statement_timeout_s,
            )
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter for retried attempts."""

    #: Retries after a deadlock / lock-timeout abort before giving up.
    max_retries: int = 2
    #: Backoff before the first retry, simulated seconds.
    base_backoff_s: float = 0.02
    #: Growth factor per subsequent retry.
    multiplier: float = 2.0
    #: Backoff ceiling, simulated seconds.
    max_backoff_s: float = 0.5
    #: Fraction of the backoff randomized away (0: fixed; 0.5: each
    #: backoff is uniform in [0.5x, 1x] of the nominal value).
    jitter: float = 0.5

    def backoff_s(self, attempt: int, rng: Random) -> float:
        """Backoff before retry ``attempt`` (0-based), drawn from
        ``rng`` — deterministic for a seeded generator."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0: {attempt}")
        raw = min(
            self.base_backoff_s * self.multiplier ** attempt,
            self.max_backoff_s,
        )
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


@dataclass
class _StatementGuard:
    """Baseline consumption at statement start, for per-query bounds."""

    started_s: float
    busy0_s: float
    faults0: int
    cursor: object | None = None


class AdmissionGate:
    """Max-concurrent-sessions gate with a FIFO wait queue.

    ``enter`` admits immediately when a slot is free *and* nobody is
    queued ahead (strict FIFO — late arrivals cannot overtake), else
    blocks the calling task until ``leave`` promotes it.  Outside a
    scheduled slice (immediate mode, warm-up) the gate is a no-op
    pass-through: with no scheduler there is nobody to queue behind.
    """

    def __init__(self, scheduler: "CooperativeScheduler", max_active: int):
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
    def active_count(self) -> int:
        return len(self._active)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)


class ResourceGovernor:
    """Budgets + cancellation + (optionally) the admission gate.

    One per :class:`~repro.service.QueryService`.  Sessions call
    :meth:`checkpoint` at every cooperative check point (page faults via
    the service's fault hook, batch boundaries in ``Session.execute``);
    the governor converts pending cancels and exceeded budgets into
    typed exceptions *in the session's own execution context*, so the
    operation unwinds through the normal abort path — cursors close,
    handles drop, the transaction's locks release.
    """

    def __init__(
        self,
        service: "QueryService",
        query_budget: QueryBudget | None = None,
        max_active: int | None = None,
    ):
        self.service = service
        self.query_budget = (
            query_budget if query_budget is not None and query_budget.armed
            else None
        )
        self.gate = (
            AdmissionGate(service.scheduler, max_active)
            if max_active is not None
            else None
        )
        self._guards: dict[int, _StatementGuard] = {}
        self._cancelled: dict[int, str] = {}
        #: Cancels delivered by interrupting a blocked wait (the rest
        #: are delivered at a checkpoint).
        self.interrupts = 0
        #: Commits between MVCC vacuum sweeps (the governed background
        #: GC: every ``vacuum_interval``-th commit sweeps version chains
        #: up to the oldest active snapshot).
        self.vacuum_interval = 8
        self._commits_since_vacuum = 0
        #: Sweeps run / versions freed by the governed GC.
        self.vacuums = 0
        self.versions_swept = 0

    # -- MVCC garbage collection -----------------------------------------

    def note_commit(self, session: "Session") -> None:
        """Session commit hook: every ``vacuum_interval`` commits, run a
        version-chain sweep on the transaction manager.  Free for pure
        2PL runs (no MVCC enabled — the sweep is a no-op and charges
        nothing), so their cost timeline is untouched."""
        txm = self.service.txm
        if not txm.mvcc_enabled:
            return
        self._commits_since_vacuum += 1
        if self._commits_since_vacuum < self.vacuum_interval:
            return
        self._commits_since_vacuum = 0
        self.vacuums += 1
        self.versions_swept += txm.vacuum()

    # -- statements ------------------------------------------------------

    def begin_statement(self, session: "Session", cursor) -> None:
        if self.query_budget is None:
            return
        self.service._accrue()
        m = session.metrics
        self._guards[session.session_id] = _StatementGuard(
            started_s=self.service.db.clock.elapsed_s,
            busy0_s=m.busy_s,
            faults0=m.meters.client_faults,
            cursor=cursor,
        )

    def end_statement(self, session: "Session") -> None:
        self._guards.pop(session.session_id, None)

    # -- cancellation ----------------------------------------------------

    def cancel(self, session: "Session", reason: str = "cancelled") -> None:
        """Cancel ``session``'s current operation.  Safe from any other
        session (or from outside the run): the victim observes
        :class:`~repro.errors.QueryCancelledError` at its next check
        point, or immediately if it is blocked in a wait."""
        sid = session.session_id
        self._cancelled[sid] = reason
        task = session.task
        if task is None:
            return
        exc = QueryCancelledError(
            f"session {session.name!r}: {reason}"
        )
        txn = session.txn
        txn_id = txn.txn_id if txn is not None else None
        if self.service.scheduler.interrupt(task, exc, txn_id=txn_id):
            # Delivered at the victim's wait point right now; the
            # checkpoint path won't see it, so count it here.
            self._cancelled.pop(sid, None)
            session.metrics.cancelled += 1
            self.interrupts += 1

    # -- the check point -------------------------------------------------

    def checkpoint(self, session: "Session | None") -> None:
        """Raise the pending cancel / budget violation for ``session``,
        if any.  Called at page faults and batch boundaries; cheap when
        nothing is armed."""
        if session is None:
            return
        reason = self._cancelled.pop(session.session_id, None)
        if reason is not None:
            session.metrics.cancelled += 1
            raise QueryCancelledError(f"session {session.name!r}: {reason}")
        if self.query_budget is None:
            return
        # Accrue whether or not a statement is open: how ``busy_s`` is
        # split into additions decides its last bits.
        self.service._accrue()
        m = session.metrics
        guard = self._guards.get(session.session_id)
        if guard is not None:
            stats = getattr(guard.cursor, "stats", None)
            self._enforce(
                session, self.query_budget,
                pages=m.meters.client_faults - guard.faults0,
                busy_s=m.busy_s - guard.busy0_s,
                live_rows=stats.peak_rows if stats is not None else 0,
                running_s=self.service.db.clock.elapsed_s - guard.started_s,
            )

    def _enforce(
        self,
        session: "Session",
        budget: QueryBudget,
        pages: int,
        busy_s: float,
        live_rows: int,
        running_s: float,
    ) -> None:
        name = session.name
        if budget.max_pages is not None and pages > budget.max_pages:
            session.metrics.over_budget += 1
            raise BudgetExceededError(
                f"session {name!r}: statement read {pages} pages "
                f"(budget {budget.max_pages})"
            )
        if budget.max_busy_s is not None and busy_s > budget.max_busy_s:
            session.metrics.over_budget += 1
            raise BudgetExceededError(
                f"session {name!r}: statement used {busy_s:.6f} busy s "
                f"(budget {budget.max_busy_s:g})"
            )
        if (
            budget.max_live_rows is not None
            and live_rows > budget.max_live_rows
        ):
            session.metrics.over_budget += 1
            raise BudgetExceededError(
                f"session {name!r}: statement buffered {live_rows} live rows "
                f"(budget {budget.max_live_rows})"
            )
        if (
            budget.statement_timeout_s is not None
            and running_s > budget.statement_timeout_s
        ):
            session.metrics.over_budget += 1
            raise StatementTimeoutError(
                f"session {name!r}: statement ran {running_s:.6f} s "
                f"(timeout {budget.statement_timeout_s:g})"
            )
