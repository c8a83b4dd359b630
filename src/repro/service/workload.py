"""Parameterized multi-client workload mixes over a Derby database.

The paper ran every query as a single cold client; OCB and the dynamic
object-benchmark line of work argue that multi-user mixes are where
client/server systems earn (or lose) their keep.  A
:class:`WorkloadMixer` replays exactly that scenario deterministically:

* **navigators** pick a provider and walk its ``clients`` set — the
  pointer-chasing workload (shared locks, scattered page reads);
* **scanners** run an OQL selection over ``Patients`` — the associative
  workload (big sequential reads that fight everyone else for the
  shared server cache);
* **updaters** write-lock pairs of *hot-set* patients and update them —
  the workload that creates lock waits, timeouts and deadlocks.

All randomness is drawn from per-session ``random.Random`` instances
seeded from ``MixConfig.seed``, and the scheduler interleaves
deterministically, so a given mix on a given database always produces
the same commits, aborts, deadlocks and simulated times.

This module also holds what the single-server mixer shares with the
sharded one (:mod:`repro.dist.workload`): the client/retry half of the
configuration (:class:`ClientMix`), the client spawner
(:func:`spawn_clients`), the report (:class:`MixReport`) and the one
driver, :func:`session_loop` — the only place that says what a failed
attempt means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

from repro.bench.report import Table
from repro.errors import (
    DeadlockError,
    GovernorError,
    LockConflictError,
    LockTimeoutError,
    PermanentIOError,
    ServiceError,
    ShardUnavailableError,
    SimulatedCrashError,
    WriteConflictError,
)
from repro.service.governor import QueryBudget, RetryPolicy
from repro.service.service import QueryService, Session, SessionMetrics
from repro.simtime import Bucket
from repro.storage.rid import Rid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.loader import DerbyDatabase
    from repro.recovery import CrashInjector, TransientFaultInjector
    from repro.service.scheduler import CooperativeScheduler
    from repro.simtime import SimClock
    from repro.stats.store import StatsDatabase

#: Profile names, in the order ``MixConfig.from_clients`` deals them.
PROFILES = ("navigator", "scanner", "updater")

#: Jitter fraction of every retry backoff (see ``RetryPolicy.jitter``).
RETRY_JITTER = 0.5
#: Retries after :class:`~repro.errors.ShardUnavailableError` — a
#: separate, larger allowance than ``max_retries``: unlike a deadlock,
#: unavailability heals on its own once failover promotes the standby,
#: so patience (with the same exponential backoff) is the right policy.
UNAVAILABLE_RETRIES = 12
#: Children a navigator visits per provider.
NAVIGATOR_FANOUT = 8
#: Shared locks a scanner takes on hot-set patients per op.
SCANNER_LOCK_SAMPLES = 2


@dataclass(frozen=True)
class ClientMix:
    """The client and retry half of a mix, shared by the single-server
    and the sharded configuration: who runs, how often, and how a
    failed attempt is retried."""

    #: Profile names in dealing (and spawning) order; each names the
    #: count field ``<profile>s``.
    profiles: ClassVar[tuple[str, ...]] = ("scanner", "updater")

    scanners: int = 1
    updaters: int = 1
    #: Operations (transactions / queries) each client attempts.
    ops_per_client: int = 4
    seed: int = 1
    #: Retries after a deadlock/timeout abort before giving up on an op.
    max_retries: int = 2
    #: Backoff before the first retry (simulated seconds; doubles per
    #: retry, jittered from the session's seeded stream).
    retry_backoff_s: float = 0.02
    #: Updaters (and scanner samples) draw from the first ``hot_set``
    #: patients — small enough that write/write conflicts actually occur.
    hot_set: int = 16
    #: Selectivity (percent) of the scanner's OQL selection.
    scan_selectivity_pct: float = 10.0
    #: Rows per operator / exchange batch for every session's queries
    #: (``None``: the engine default).  Smaller batches yield the
    #: scheduler baton more often (see
    #: ``CooperativeScheduler.batch_point``).
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.total_clients < 1:
            raise ServiceError("a mix needs at least one client")

    @property
    def clients(self) -> list[tuple[str, int]]:
        """``(profile, count)`` in spawning order."""
        return [(p, getattr(self, f"{p}s")) for p in self.profiles]

    @property
    def total_clients(self) -> int:
        return sum(count for __, count in self.clients)

    @classmethod
    def from_clients(cls, n_clients: int, **overrides: object):
        """Deal ``n_clients`` round-robin over :attr:`profiles`;
        ``overrides`` set any other field (or win over a dealt count)."""
        dealt = {
            f"{p}s": len(range(i, n_clients, len(cls.profiles)))
            for i, p in enumerate(cls.profiles)
        }
        return cls(**{**dealt, **overrides})  # type: ignore[arg-type]

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            base_backoff_s=self.retry_backoff_s,
            jitter=RETRY_JITTER,
        )


@dataclass(frozen=True)
class MixConfig(ClientMix):
    """Shape of one multi-client mix over a single server."""

    profiles: ClassVar[tuple[str, ...]] = PROFILES

    navigators: int = 1
    #: Lock wait bound in simulated seconds (``None``: no timeout,
    #: deadlock detection only).
    lock_timeout_s: float | None = None
    #: Per-statement budgets (``None``: unbounded) — see ``QueryBudget``.
    budget_pages: int | None = None
    budget_busy_s: float | None = None
    budget_rows: int | None = None
    statement_timeout_s: float | None = None
    #: Admission control: sessions running an operation concurrently
    #: (``None``: no gate).  The rest queue FIFO.
    max_active: int | None = None
    #: Force physical logging even without a crash/fault injector.
    recovery: bool = False
    #: Concurrency control every session runs under: ``"2pl"`` (strict
    #: two-phase locking, readers take S locks) or ``"si"`` (MVCC
    #: snapshot isolation: readers resolve version chains lock-free,
    #: writers keep X locks and abort on first-committer-wins
    #: conflicts).  ``"si"`` forces ``recovery=True`` — aborts must
    #: physically restore pre-images or snapshots would see them.
    isolation: str = "2pl"
    #: What updaters write: ``"age"`` derives the new value from the age
    #: just read (the classic read-modify-write), ``"keyed"`` derives
    #: both the hot pair *and* the value from ``(seed, client, op)`` /
    #: the rid alone — order-independent by construction, so a 2pl and
    #: an si run of the same config commit the identical end state (the
    #: cross-isolation digest gate of ``benchmarks/bench_mvcc.py``).
    update_values: str = "age"
    #: Override for the shared server tier's size.
    server_cache_pages: int | None = None
    #: Planner every session uses: ``"heuristic"`` (the default
    #: rule-plus-cost planner) or ``"cost"`` (the statistics-driven
    #: :class:`repro.opt.CostBasedOptimizer`; the mixer bootstraps it by
    #: running one governed ``analyze`` statement before the mix).
    optimizer: str = "heuristic"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.update_values not in ("age", "keyed"):
            raise ServiceError(
                f"unknown update_values {self.update_values!r} "
                "(expected 'age' or 'keyed')"
            )


def spawn_clients(config: ClientMix, spawn: Callable) -> list:
    """Call ``spawn(name, profile, rng, client_index)`` once per client,
    profile by profile in :attr:`ClientMix.clients` order, and return
    what the calls returned.  The names (``scanner0``, ``scanner1``,
    ``updater0``, …) and each client's private stream — a function of
    ``(seed, client_index)`` alone — are the same for every backend."""
    out = []
    for profile, count in config.clients:
        for i in range(count):
            index = len(out)
            rng = Random(config.seed * 10_007 + index)
            out.append(spawn(f"{profile}{i}", profile, rng, index))
    return out


def session_loop(
    ops: Iterable[Callable[[], object]],
    metrics: SessionMetrics,
    policy: RetryPolicy,
    rng: Random,
    clock: "SimClock",
    scheduler: "CooperativeScheduler",
) -> None:
    """Drive one client through ``ops``: attempt each operation until it
    succeeds or is given up on, then yield once ("think time").

    What a failed attempt means is decided here and nowhere else:

    * :class:`~repro.errors.LockConflictError` — a deadlock victim, a
      lock timeout or a first-committer-wins conflict, counted by kind.
      Transient: retried up to ``policy.max_retries`` times.
    * :class:`~repro.errors.ShardUnavailableError` — the shard is
      between primaries.  Transient too, but on its own counter, up to
      :data:`UNAVAILABLE_RETRIES`: the backoffs span the detection +
      promotion window, after which the op succeeds against the new
      primary.  Conflict retries neither use up nor shorten it.
    * :class:`~repro.errors.PermanentIOError` — a read fault that
      out-lasted the disk's own retry budget.  The op is lost, not
      retried (the page is "broken", trying again changes nothing).
    * :class:`~repro.errors.GovernorError` — cancelled or over budget:
      stopped on purpose, never retried, and already counted by the
      governor (``cancelled`` / ``over_budget``).

    Anything else propagates and ends the session.  An op must leave
    nothing open when it raises (``Session.transaction()`` and the
    distributed updater's ``except`` both abort), and ``aborted`` is the
    op's to count — this loop never touches it.

    Every retry consumes the session's stream in a fixed order — count
    the retry, draw the jittered backoff from ``rng``, charge it to
    :attr:`~repro.simtime.Bucket.BACKOFF` (on a single deterministic
    timeline, sleeping means letting the other sessions spend that
    time), yield — so ops must draw what has to survive a retry from
    something other than ``rng``.
    """
    for op in ops:
        started_s = clock.elapsed_s
        conflict_retries = unavailable_retries = 0
        while True:
            try:
                op()
            except LockConflictError as exc:
                if isinstance(exc, WriteConflictError):
                    metrics.conflicts += 1
                elif isinstance(exc, DeadlockError):
                    metrics.deadlocks += 1
                elif isinstance(exc, LockTimeoutError):
                    metrics.timeouts += 1
                attempt = conflict_retries
                if attempt >= policy.max_retries:
                    metrics.gave_up += 1
                    break
                conflict_retries += 1
            except ShardUnavailableError:
                metrics.unavailable += 1
                attempt = unavailable_retries
                if attempt >= UNAVAILABLE_RETRIES:
                    metrics.gave_up += 1
                    break
                unavailable_retries += 1
            except PermanentIOError:
                metrics.io_failures += 1
                metrics.gave_up += 1
                break
            except GovernorError:
                break
            else:
                metrics.latencies_s.append(clock.elapsed_s - started_s)
                break
            metrics.retries += 1
            backoff_s = policy.backoff_s(attempt, rng)
            if backoff_s > 0:
                clock.charge_s(Bucket.BACKOFF, backoff_s)
            scheduler.yield_point()
        scheduler.yield_point()  # think time between operations


@dataclass
class SessionReport:
    """One session's outcome, flattened for tables and stats rows."""

    name: str
    profile: str
    metrics: SessionMetrics

    @property
    def throughput_ops_s(self) -> float:
        total = self.metrics.busy_s + self.metrics.lock_wait_s
        if total <= 0:
            return 0.0
        return self.metrics.committed / total


@dataclass
class MixReport:
    """Aggregate outcome of one mix run, single-server or sharded."""

    config: ClientMix
    sessions: list[SessionReport]
    #: Simulated seconds for the whole mix (the shared timeline).
    elapsed_s: float
    context_switches: int
    #: ``True`` when a crash injector killed the run; the mixer's
    #: service (or the cluster) is left crashed, awaiting ``recover()``.
    crashed: bool = False
    #: Deepest the admission gate's FIFO queue ever got (0 without
    #: admission control).
    max_queue_depth: int = 0

    @property
    def committed(self) -> int:
        return sum(s.metrics.committed for s in self.sessions)

    @property
    def aborted(self) -> int:
        return sum(s.metrics.aborted for s in self.sessions)

    @property
    def deadlocks(self) -> int:
        return sum(s.metrics.deadlocks for s in self.sessions)

    @property
    def timeouts(self) -> int:
        return sum(s.metrics.timeouts for s in self.sessions)

    @property
    def conflicts(self) -> int:
        """First-committer-wins aborts (snapshot isolation only)."""
        return sum(s.metrics.conflicts for s in self.sessions)

    @property
    def lock_waits(self) -> int:
        """Times any session blocked on a lock (SI scans contribute 0)."""
        return sum(s.metrics.lock_waits for s in self.sessions)

    @property
    def retries(self) -> int:
        return sum(s.metrics.retries for s in self.sessions)

    @property
    def gave_up(self) -> int:
        return sum(s.metrics.gave_up for s in self.sessions)

    @property
    def cancelled(self) -> int:
        return sum(s.metrics.cancelled for s in self.sessions)

    @property
    def over_budget(self) -> int:
        return sum(s.metrics.over_budget for s in self.sessions)

    @property
    def io_failures(self) -> int:
        return sum(s.metrics.io_failures for s in self.sessions)

    @property
    def unavailable(self) -> int:
        return sum(s.metrics.unavailable for s in self.sessions)

    @property
    def queue_wait_s(self) -> float:
        return sum(s.metrics.queue_wait_s for s in self.sessions)

    @property
    def throughput_ops_s(self) -> float:
        """Committed transactions per simulated second, all sessions."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.committed / self.elapsed_s

    def table(self) -> Table:
        """The single-server view (sharded runs print
        :func:`repro.dist.workload.sharded_table`)."""
        table = Table(
            f"Mix: {self.config.navigators} navigator(s) + "
            f"{self.config.scanners} scanner(s) + "
            f"{self.config.updaters} updater(s), "
            f"{self.config.ops_per_client} ops each",
            ["Session", "Profile", "Committed", "Aborted", "Retries",
             "Deadlocks", "Timeouts", "Conflicts", "LockWaits", "Cancel",
             "OverBudget", "Busy (s)", "Wait (s)", "Queue (s)",
             "Mean lat (s)", "Ops/s"],
        )
        for s in self.sessions:
            m = s.metrics
            table.add(
                s.name, s.profile, m.committed, m.aborted, m.retries,
                m.deadlocks, m.timeouts, m.conflicts, m.lock_waits,
                m.cancelled, m.over_budget,
                m.busy_s, m.lock_wait_s, m.queue_wait_s, m.mean_latency_s,
                s.throughput_ops_s,
            )
        note = (
            f"aggregate: {self.committed} committed, {self.aborted} "
            f"aborted ({self.retries} retried, {self.gave_up} gave up) in "
            f"{self.elapsed_s:.2f} simulated s -> "
            f"{self.throughput_ops_s:.3f} txn/s; "
            f"{self.context_switches} context switches"
        )
        if self.config.isolation == "si":
            note += (
                f"; isolation=si: {self.conflicts} write conflicts, "
                f"{self.lock_waits} lock waits"
            )
        if self.max_queue_depth:
            note += f"; admission queue depth peaked at {self.max_queue_depth}"
        table.note(note)
        return table


class WorkloadMixer:
    """Builds a :class:`QueryService`, spawns the mix, runs it."""

    def __init__(
        self,
        derby: "DerbyDatabase",
        config: MixConfig,
        stats: "StatsDatabase | None" = None,
        injector: "CrashInjector | None" = None,
        faults: "TransientFaultInjector | None" = None,
    ):
        self.derby = derby
        self.config = config
        self.stats = stats
        #: Arming an injector switches the service to ``recovery=True``
        #: (physical logging) so a mid-mix crash is recoverable.
        self.injector = injector
        #: Transient faults (flaky reads, lock-timeout storms) the run
        #: is expected to *survive*; also forces ``recovery=True`` so
        #: fault-driven aborts roll back physically.
        self.faults = faults
        #: The service of the last :meth:`run` — after a crash, call
        #: ``self.service.recover()`` on it.
        self.service: QueryService | None = None
        #: Committed writes in ack order: ``(rid, value)`` appended the
        #: moment each updater's ``commit()`` returns.  The single
        #: deterministic timeline totally orders commits, so the last
        #: write per rid is the expected durable value — the chaos
        #: checker's oracle.
        self.write_log: list[tuple[Rid, int]] = []

    # -- the run ------------------------------------------------------------

    def run(self, cold: bool = True) -> MixReport:
        config = self.config
        if cold:
            self.derby.start_cold_run()
        self.write_log = []
        query_budget = QueryBudget(
            max_pages=config.budget_pages,
            max_busy_s=config.budget_busy_s,
            max_live_rows=config.budget_rows,
            statement_timeout_s=config.statement_timeout_s,
        )
        service = QueryService(
            self.derby,
            lock_timeout_s=config.lock_timeout_s,
            server_cache_pages=config.server_cache_pages,
            recovery=(
                config.recovery
                or config.isolation == "si"
                or self.injector is not None
                or self.faults is not None
            ),
            query_budget=query_budget if query_budget.armed else None,
            max_active=config.max_active,
            optimizer=config.optimizer,
            isolation=config.isolation,
        )
        self.service = service
        if service.plan_optimizer is not None:
            # Bootstrap the shared cost-based planner: one ``analyze``
            # statement, run as a governed session operation so its
            # (simulated) cost lands on the timeline like everything
            # else — the statistics are not free.
            analyst = service.open_session("analyst")
            with service.immediate(analyst):
                analyst.execute("analyze")
        if self.injector is not None:
            self.injector.arm(service.db, service.txm.log)
        if self.faults is not None:
            self.faults.arm(service.db, service.txm.locks)
        clock = self.derby.db.clock
        policy = config.retry_policy()
        start_s = clock.elapsed_s

        def spawn(
            name: str, profile: str, rng: Random, client_index: int
        ) -> SessionReport:
            session = service.open_session(name)
            if config.batch_size is not None:
                session.batch_size = config.batch_size
            ops = self._client_ops(session, profile, rng, client_index)
            service.spawn(
                session,
                partial(
                    session_loop, ops, session.metrics, policy, rng,
                    clock, service.scheduler,
                ),
            )
            return SessionReport(name, profile, session.metrics)

        reports = spawn_clients(config, spawn)
        try:
            tasks = service.run()
            crashed = any(
                isinstance(t.error, SimulatedCrashError) for t in tasks
            )
            if crashed:
                # Volatile state is meaningless past the crash point; do
                # NOT close() (that would flush post-crash pages to
                # disk).  Drop everything volatile so only durable state
                # remains, leaving self.service ready for recover().
                service.crash()
            else:
                service.close()
                for task in tasks:
                    if task.error is not None:
                        raise task.error
        finally:
            # The disk and derby outlive this service; leaving either
            # injector armed would corrupt later runs on the same derby
            # (a crash point never reached keeps counting page writes).
            # After a crash ``service.crash()`` already disarmed it.
            if self.injector is not None:
                self.injector.disarm(service.db, service.txm.log)
            if self.faults is not None:
                self.faults.disarm(service.db, service.txm.locks)
        gate = service.governor.gate
        report = MixReport(
            config=config,
            sessions=reports,
            elapsed_s=clock.elapsed_s - start_s,
            context_switches=service.scheduler.context_switches,
            crashed=crashed,
            max_queue_depth=gate.max_queue_depth if gate is not None else 0,
        )
        if self.stats is not None and not crashed:
            self._record(report)
        return report

    # -- the operations ------------------------------------------------------

    def _client_ops(
        self, session: Session, profile: str, rng: Random, client_index: int
    ) -> list[Callable[[], None]]:
        """One client's operations for :func:`session_loop`.  Each runs
        inside an admission slot and wholly inside
        ``session.transaction()``, which aborts on any exception — so a
        failed attempt hands the loop a session with no open transaction
        and no locks."""
        op = {
            "navigator": self._navigator_op,
            "scanner": self._scanner_op,
            "updater": self._updater_op,
        }[profile]
        config = self.config

        def attempt(op_seed: int) -> None:
            with session.admitted():
                op(session, rng, op_seed)

        # Stable per-op key: a function of (seed, client, op) only, so
        # retries (which consume the session rng for backoff jitter)
        # never shift what later ops do.
        return [
            partial(
                attempt,
                config.seed * 1_000_003 + client_index * 8_191 + op_index,
            )
            for op_index in range(config.ops_per_client)
        ]

    def _navigator_op(
        self, session: Session, rng: Random, op_seed: int
    ) -> None:
        derby = self.derby
        provider_rid = derby.provider_rids[
            rng.randrange(len(derby.provider_rids))
        ]
        with session.transaction():
            session.read_lock(provider_rid)
            clients = session.get_attr(provider_rid, "clients")
            child_rids = []
            for rid in derby.db.iter_set_rids(clients):
                child_rids.append(rid)
                if len(child_rids) >= NAVIGATOR_FANOUT:
                    break
            for rid in child_rids:
                session.read_lock(rid)
                session.get_attr(rid, "age")
            session.metrics.queries += 1

    def _scanner_op(
        self, session: Session, rng: Random, op_seed: int
    ) -> None:
        derby = self.derby
        hot = min(self.config.hot_set, len(derby.patient_rids))
        threshold = derby.config.num_threshold(self.config.scan_selectivity_pct)
        with session.transaction():
            for __ in range(SCANNER_LOCK_SAMPLES):
                session.read_lock(derby.patient_rids[rng.randrange(hot)])
            session.execute(
                f"select p.age from p in Patients where p.num > {threshold}"
            )

    def _updater_op(
        self, session: Session, rng: Random, op_seed: int
    ) -> None:
        derby = self.derby
        hot = min(self.config.hot_set, len(derby.patient_rids))
        if hot < 2:
            raise ServiceError("updater needs at least two hot patients")
        keyed = self.config.update_values == "keyed"
        if keyed:
            # Pair and value depend only on (op_seed, rid): retries and
            # commit order cannot change the committed end state, so a
            # 2pl and an si run of this config produce the same digest.
            first, second = Random(op_seed).sample(range(hot), 2)
        else:
            first, second = rng.sample(range(hot), 2)
        rid_a = derby.patient_rids[first]
        rid_b = derby.patient_rids[second]
        writes: list[tuple[Rid, int]] = []
        with session.transaction():
            session.write_lock(rid_a)
            session.pause()  # the window in which opposite-order pairs deadlock
            session.write_lock(rid_b)
            for rid in (rid_a, rid_b):
                age = session.get_attr(rid, "age")
                if keyed:
                    value = (rid.page_no * 37 + rid.slot * 11) % 90 + 1
                else:
                    value = (int(age) % 90) + 1
                session.update_scalar(rid, "age", value)
                writes.append((rid, value))
        # Ack order on the single timeline == commit order: the oracle
        # the chaos checker verifies durable state against.
        self.write_log.extend(writes)

    # -- stats recording -----------------------------------------------------

    def _record(self, report: MixReport) -> None:
        assert self.stats is not None
        memory = self.derby.config.params.memory
        page = memory.page_size
        server_bytes = (
            self.config.server_cache_pages * page
            if self.config.server_cache_pages is not None
            else memory.server_cache_bytes
        )
        for s in report.sessions:
            self.stats.record_experiment(
                algo=f"mix-{s.profile}",
                cluster=self.derby.config.clustering.value,
                elapsed_s=s.metrics.busy_s + s.metrics.lock_wait_s,
                meters=s.metrics.meters,
                text=(
                    f"{s.profile} x{self.config.ops_per_client} in "
                    f"{self.config.total_clients}-client mix "
                    f"(seed {self.config.seed})"
                ),
                selectivity=round(self.config.scan_selectivity_pct),
                cold=True,
                server_cache_bytes=server_bytes,
                client_cache_bytes=memory.client_cache_bytes,
                first_row_ms=s.metrics.mean_first_row_ms,
                peak_rows=s.metrics.peak_rows,
                retries=s.metrics.retries,
                cancelled=s.metrics.cancelled,
                over_budget=s.metrics.over_budget,
            )
