"""The multi-client query service: one server, many sessions.

A :class:`QueryService` owns the *server* side of the paper's topology —
the shared disk, the shared server cache, one write-ahead log and one
lock manager — and any number of :class:`Session` objects, each modeling
one client workstation: a private client cache, a private handle table,
its own transactions and its own OQL entry point.

Concurrency is cooperative and deterministic
(:class:`~repro.service.scheduler.CooperativeScheduler`): session bodies
run interleaved at client page faults, lock waits and explicit
``pause()`` calls.  On every context switch the service attaches the
incoming session's client tier and handle table to the shared
:class:`~repro.buffer.ClientServerSystem` / object manager, and accrues
the outgoing session's share of the global clock and counters — so
per-session latency, throughput and cache traffic fall out of the same
single-timeline cost model the single-client benchmarks use.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.buffer import BufferCache
from repro.errors import ServiceError
from repro.objects.handle import HandleTable
from repro.opt import CostBasedOptimizer
from repro.oql import Catalog, OQLEngine
from repro.service.governor import QueryBudget, ResourceGovernor
from repro.service.scheduler import CooperativeScheduler, Task
from repro.simtime import MeterSnapshot
from repro.storage.rid import Rid
from repro.txn import Transaction, TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.loader import DerbyDatabase


@dataclass
class SessionMetrics:
    """What one session did and what it cost."""

    committed: int = 0
    aborted: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    #: First-committer-wins losers (snapshot isolation): aborts caused
    #: by :class:`~repro.errors.WriteConflictError`, retried like other
    #: transient lock conflicts.
    conflicts: int = 0
    #: Times this session blocked waiting for a lock.  Under SI, reader
    #: profiles must report zero — the measurable no-read-locks claim.
    lock_waits: int = 0
    #: Operations re-attempted after a deadlock / lock-timeout abort
    #: (counted separately from aborts so throughput stays honest).
    retries: int = 0
    #: Operations that exhausted their retry budget and were abandoned.
    gave_up: int = 0
    #: Operations stopped by :meth:`Session.cancel`.
    cancelled: int = 0
    #: Operations stopped by a resource budget / statement timeout.
    over_budget: int = 0
    #: Operations lost to an escalated (permanent) I/O failure.
    io_failures: int = 0
    #: Attempts that hit a shard with no serving node (sharded mixes
    #: only; each is also either retried or counted in ``gave_up``).
    unavailable: int = 0
    queries: int = 0
    updates: int = 0
    rows: int = 0
    #: Batches consumed from pipelined queries.
    batches: int = 0
    #: Sum of per-query time-to-first-row (simulated seconds), over
    #: queries that produced at least one row.
    first_row_s_total: float = 0.0
    #: Queries that contributed to ``first_row_s_total``.
    first_row_samples: int = 0
    #: Highest pipeline live-row high-water mark over this session's
    #: queries.
    peak_rows: int = 0
    #: Simulated seconds charged while this session held the baton.
    busy_s: float = 0.0
    #: Simulated seconds spent suspended on lock waits.
    lock_wait_s: float = 0.0
    #: Simulated seconds spent queued in the admission gate.
    queue_wait_s: float = 0.0
    #: Per-committed-operation response times (submit -> commit, on the
    #: shared timeline, so they include time consumed by other sessions).
    latencies_s: list[float] = field(default_factory=list)
    meters: MeterSnapshot = field(default_factory=MeterSnapshot)

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    @property
    def mean_first_row_ms(self) -> float:
        if not self.first_row_samples:
            return 0.0
        return self.first_row_s_total * 1e3 / self.first_row_samples

    @property
    def max_latency_s(self) -> float:
        return max(self.latencies_s, default=0.0)


class Session:
    """One client connection to the query service."""

    def __init__(
        self,
        service: "QueryService",
        session_id: int,
        name: str,
        isolation: str | None = None,
    ):
        self.service = service
        self.session_id = session_id
        self.name = name
        #: Isolation level this session's transactions open at (defaults
        #: to the service-wide setting).
        self.isolation = isolation or service.isolation
        db = service.db
        self.cache: BufferCache = db.system.new_client_tier()
        self.handles = HandleTable(
            db.clock, db.params, db.counters, db.handles.mode
        )
        self.engine = OQLEngine(
            service.catalog, optimizer=service.plan_optimizer
        )
        #: Rows pulled per operator batch; the scheduler is offered the
        #: baton between batches.
        self.batch_size: int = self.engine.batch_size
        self.txn: Transaction | None = None
        self.metrics = SessionMetrics()
        self.task: Task | None = None

    # -- transactions -------------------------------------------------------

    def begin(self, isolation: str | None = None) -> Transaction:
        if self.txn is not None and self.txn.state == "active":
            raise ServiceError(
                f"session {self.name!r} already has an open transaction"
            )
        self.txn = self.service.txm.begin(
            logged=True, isolation=isolation or self.isolation
        )
        # If this session holds the baton right now, its new snapshot
        # must govern reads immediately (not only after the next switch).
        if self.service._active is self:
            self.service._install_read_view(self)
        return self.txn

    def commit(self) -> None:
        self._require_txn().commit()
        self.metrics.committed += 1
        self.service.governor.note_commit(self)

    def abort(self) -> None:
        self._require_txn().abort()
        self.metrics.aborted += 1

    def _require_txn(self) -> Transaction:
        if self.txn is None or self.txn.state != "active":
            raise ServiceError(f"session {self.name!r} has no open transaction")
        return self.txn

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Begin a transaction scoped to the ``with`` block: committed on
        normal exit, aborted when the body raises.  The bracketed form
        workload operations use so a lock conflict, I/O failure or
        governor cancellation mid-operation can never leak an open
        transaction (and its locks) back to the retry loop."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.state == "active":
                self.abort()
            raise
        if txn.state == "active":
            self.commit()

    # -- operations ---------------------------------------------------------

    def execute(self, oql: str) -> list:
        """Run an OQL query through this session's engine (and caches),
        yielding the scheduler baton at every operator batch boundary.
        The governor checks budgets/cancellation per batch; on any
        failure the cursor's context manager closes the pipeline, so no
        handle or buffer outlives the error."""
        governor = self.service.governor
        rows: list = []
        with self.execute_iter(oql) as cursor:
            for batch in cursor.batches():
                rows.extend(batch)
                governor.checkpoint(self)
                self.service.scheduler.batch_point()
        return rows

    def execute_iter(self, oql: str, batch_size: int | None = None):
        """Open a streaming cursor over an OQL query.  The caller pulls
        batches (and decides when to yield); metrics are folded in as
        batches arrive and when the pipeline closes.  The statement
        budget clock starts here and stops when the cursor closes."""
        cursor = self.engine.execute_iter(oql, batch_size or self.batch_size)
        metrics = self.metrics
        metrics.queries += 1
        governor = self.service.governor
        governor.begin_statement(self, cursor)

        def on_close() -> None:
            governor.end_statement(self)
            stats = cursor.stats
            metrics.rows += stats.rows
            metrics.batches += stats.batches
            if stats.first_row_s is not None:
                metrics.first_row_s_total += stats.first_row_s
                metrics.first_row_samples += 1
            metrics.peak_rows = max(metrics.peak_rows, stats.peak_rows)

        cursor.on_close = on_close
        return cursor

    def read_lock(self, rid: Rid) -> None:
        self._require_txn().read_lock(rid)

    def write_lock(self, rid: Rid) -> None:
        self._require_txn().write_lock(rid)

    def update_scalar(self, rid: Rid, attr: str, value: object) -> Rid:
        """Write-lock, update and log one scalar attribute.

        The transaction decides what "log" means: the legacy 8-byte cost
        record, or — when the service runs with ``recovery=True`` — a
        physical record with page images that a crash can be recovered
        from."""
        new_rid = self._require_txn().update_scalar(rid, attr, value)
        self.metrics.updates += 1
        return new_rid

    def get_attr(self, rid: Rid, attr: str) -> object:
        """Load an object (through this session's handle table) and read
        one attribute, paying the usual handle traffic."""
        om = self.service.db.manager
        with om.borrow(rid) as handle:
            return om.get_attr(handle, attr)

    def pause(self) -> None:
        """Voluntarily yield to the other sessions ("think time")."""
        self.service.scheduler.yield_point()

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel this session's current operation (callable from any
        other session, or from outside the run).  Cooperative: the
        victim raises :class:`~repro.errors.QueryCancelledError` at its
        next page fault / batch boundary, or immediately at its wait
        point if it is blocked."""
        self.service.governor.cancel(self, reason)

    @contextmanager
    def admitted(self) -> Iterator["Session"]:
        """Hold an admission-gate slot for the duration (a no-op when
        the service has no admission control).  Enter *before*
        ``begin()`` — admission waiters must hold no locks, which is
        what keeps admission waits out of every deadlock cycle."""
        gate = self.service.governor.gate
        if gate is None:
            yield self
            return
        if self.txn is not None and self.txn.state == "active":
            raise ServiceError(
                f"session {self.name!r} entered admission holding an open "
                "transaction (waiters must hold no locks)"
            )
        waited_s = gate.enter(self)
        self.metrics.queue_wait_s += waited_s
        try:
            yield self
        finally:
            gate.leave(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.name}>"


class QueryService:
    """Shared server tier + session registry + cooperative scheduler."""

    def __init__(
        self,
        derby: "DerbyDatabase",
        lock_timeout_s: float | None = None,
        server_cache_pages: int | None = None,
        recovery: bool = False,
        query_budget: QueryBudget | None = None,
        max_active: int | None = None,
        optimizer: str = "heuristic",
        isolation: str = "2pl",
    ):
        if optimizer not in ("heuristic", "cost"):
            raise ServiceError(
                f"unknown optimizer {optimizer!r} "
                "(expected 'heuristic' or 'cost')"
            )
        if isolation not in ("2pl", "si"):
            raise ServiceError(
                f"unknown isolation {isolation!r} (expected '2pl' or 'si')"
            )
        if isolation == "si" and not recovery:
            raise ServiceError(
                "isolation='si' needs a service built with recovery=True "
                "(SI aborts roll back physically to the stashed pre-images)"
            )
        self.isolation = isolation
        self.derby = derby
        self.db = derby.db
        self.catalog = Catalog.from_derby(derby)
        #: Shared planner for every session when cost-based planning is
        #: requested; ``None`` keeps each engine's private heuristic
        #: planner.  Shared on purpose: one ``analyze`` (from any
        #: session) installs statistics for the whole service, the way
        #: a real server keeps one catalog of optimizer statistics.
        self.plan_optimizer = (
            CostBasedOptimizer(self.catalog) if optimizer == "cost" else None
        )
        self.recovery = recovery
        self.txm = TransactionManager(self.db, recovery=recovery)
        if isolation == "si":
            # Enable MVCC before any client runs, so every logged write
            # stashes its pre-image and no snapshot has a blind spot.
            self.txm.enable_mvcc()
        self.txm.locks.timeout_s = lock_timeout_s
        self.scheduler = CooperativeScheduler(
            self.db.clock, self.txm.locks, on_switch=self._on_switch
        )
        #: Budgets, cancellation and (with ``max_active``) admission
        #: control — see :mod:`repro.service.governor`.
        self.governor = ResourceGovernor(
            self, query_budget=query_budget, max_active=max_active
        )
        self.sessions: list[Session] = []
        self._task_session: dict[int, Session] = {}
        self._active: Session | None = None
        self._last_s = 0.0
        self._last_meters = self.db.counters.snapshot()
        self._base_client_cache = self.db.system.client_cache
        self._base_handles = self.db.handles
        self._base_server_cache: BufferCache | None = None
        if server_cache_pages is not None:
            self._base_server_cache = self.db.system.server_cache
            self.db.system.server_cache = BufferCache(
                server_cache_pages,
                on_evict_dirty=self.db.system._write_back_to_disk,
            )

    # -- sessions -----------------------------------------------------------

    def open_session(
        self,
        name: str | None = None,
        isolation: str | None = None,
    ) -> Session:
        """Open a client connection.  ``isolation`` overrides the
        service-wide default for this session only (e.g. one ``si``
        reporting session against an otherwise-2pl service; the service
        must still have been built with ``recovery=True`` for si)."""
        if isolation is not None and isolation not in ("2pl", "si"):
            raise ServiceError(
                f"unknown isolation {isolation!r} (expected '2pl' or 'si')"
            )
        if isolation == "si" and not self.recovery:
            raise ServiceError(
                "isolation='si' needs a service built with recovery=True "
                "(SI aborts roll back physically to the stashed pre-images)"
            )
        session = Session(
            self,
            len(self.sessions),
            name or f"s{len(self.sessions)}",
            isolation=isolation,
        )
        self.sessions.append(session)
        return session

    def spawn(self, session: Session, fn: Callable[[], object]) -> Task:
        """Register ``fn`` as ``session``'s body for the next :meth:`run`."""
        task = self.scheduler.spawn(session.name, fn)
        session.task = task
        self._task_session[task.task_id] = session
        return task

    # -- the run ------------------------------------------------------------

    def run(self) -> list[Task]:
        """Interleave every spawned session body to completion."""
        system = self.db.system
        system.on_fault = self._fault_point
        self._last_s = self.db.clock.elapsed_s
        self._last_meters = self.db.counters.snapshot()
        try:
            tasks = self.scheduler.run()
        finally:
            system.on_fault = None
            self._accrue()
            self._activate(None)
        for session in self.sessions:
            if session.task is not None:
                session.metrics.lock_wait_s = session.task.lock_wait_s
                session.metrics.lock_waits = session.task.lock_waits
        return tasks

    @contextmanager
    def immediate(self, session: Session) -> Iterator[Session]:
        """Run ``session`` operations *without* the scheduler (the
        ``serve`` shell's mode): the session's client tier and handle
        table are attached for the duration and its share of the clock
        and counters is accrued on exit.  Lock conflicts are fail-fast
        here — with no scheduler there is nobody to wait for."""
        self._accrue()
        self._activate(session)
        try:
            yield session
        finally:
            self._accrue()
            self._activate(None)

    # -- crash and recovery -------------------------------------------------

    def checkpoint(self) -> None:
        """Flush the dirty-page table and log a checkpoint record.

        Requires ``recovery=True`` (without physical logging there is
        nothing for a checkpoint to bound)."""
        self._require_recovery("checkpoint")
        from repro.recovery import take_checkpoint

        take_checkpoint(self.db, self.txm)

    def crash(self) -> None:
        """Kill the server: every session's volatile state (client tier,
        handle table, open transaction) is lost along with the shared
        caches, lock table and unflushed log; the disk reverts to its
        durable page images.  Call :meth:`recover` before using the
        service again."""
        self._require_recovery("crash")
        from repro.recovery import crash_database

        for session in self.sessions:
            session.cache.clear()
            session.handles.clear()
            session.txn = None
        crash_database(self.db, self.txm)
        self._activate(None)

    def recover(self):
        """Run ARIES-lite restart (analysis/redo/undo) after
        :meth:`crash`; returns the
        :class:`~repro.recovery.RecoveryReport`."""
        self._require_recovery("recover")
        from repro.recovery import restart

        return restart(self.db, self.txm)

    def _require_recovery(self, op: str) -> None:
        if not self.recovery:
            raise ServiceError(
                f"{op}() needs a service built with recovery=True "
                "(physical logging is off)"
            )

    def close(self) -> None:
        """Flush every session's client tier and restore the database's
        original single-client configuration."""
        system = self.db.system
        for session in self.sessions:
            system.attach_client_tier(session.cache)
            for page in session.cache.dirty_pages():
                system._write_back_to_server(page)
        system.attach_client_tier(self._base_client_cache)
        self.db.handles = self._base_handles
        self.db.manager.handles = self._base_handles
        if self._base_server_cache is not None:
            for page in system.server_cache.dirty_pages():
                system._write_back_to_disk(page)
            system.server_cache = self._base_server_cache

    # -- switch accounting --------------------------------------------------

    def _fault_point(self) -> None:
        """The client-page-fault hook during :meth:`run`: a governor
        check point on both sides of the scheduler yield.  The check
        *after* the yield is what caps a cancelled scan's I/O — a cancel
        flagged while the victim was suspended is raised before the
        victim charges its next page."""
        governor = self.governor
        governor.checkpoint(self._active)
        self.scheduler.yield_point()
        governor.checkpoint(self._active)

    def _on_switch(self, task: Task) -> None:
        self._accrue()
        self._activate(self._task_session.get(task.task_id))

    def _accrue(self) -> None:
        now_s = self.db.clock.elapsed_s
        meters = self.db.counters.snapshot()
        if self._active is not None:
            m = self._active.metrics
            m.busy_s += now_s - self._last_s
            m.meters += meters - self._last_meters
        self._last_s = now_s
        self._last_meters = meters

    def _activate(self, session: Session | None) -> None:
        self._active = session
        if session is not None:
            self.db.system.attach_client_tier(session.cache)
            self.db.handles = session.handles
            self.db.manager.handles = session.handles
        else:
            self.db.system.attach_client_tier(self._base_client_cache)
            self.db.handles = self._base_handles
            self.db.manager.handles = self._base_handles
        self._install_read_view(session)

    def _install_read_view(self, session: Session | None) -> None:
        """Point the object manager's read path at the incoming
        session's snapshot (SI) or back at the live records (2PL /
        no open transaction) — part of every context switch, so a
        snapshot can never leak into another session's reads."""
        om = self.db.manager
        txn = session.txn if session is not None else None
        if (
            txn is not None
            and txn.state == "active"
            and txn.snapshot is not None
        ):
            om.read_view = txn.view
        else:
            om.read_view = None
