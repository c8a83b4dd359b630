"""Exception hierarchy for the repro object database.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching programming
errors (``TypeError``, ``KeyError``, ...) from their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageFullError(StorageError):
    """A record did not fit in the target page."""


class RecordNotFoundError(StorageError):
    """No record lives at the requested rid (deleted or never allocated)."""


class RecordTooLargeError(StorageError):
    """A record exceeds the maximum size a single page can hold."""


class PermanentIOError(StorageError):
    """A page read kept failing past the disk's bounded retry budget.

    Transient read faults (see
    :class:`~repro.recovery.TransientFaultInjector`) are retried with
    backoff inside :meth:`~repro.storage.disk.DiskManager.read_page`;
    when every retry fails too, the fault is escalated to this error and
    the operation aborts."""


class ObjectError(ReproError):
    """Base class for object-layer failures."""


class SchemaError(ObjectError):
    """Invalid schema definition or schema/instance mismatch."""


class DanglingReferenceError(ObjectError):
    """A reference points at a rid that no longer holds an object."""


class HandleError(ObjectError):
    """Misuse of the handle table (double unreference, stale handle...)."""


class RecordNotVisibleError(ObjectError):
    """A snapshot-isolation reader asked for a record that has no version
    visible at its snapshot (the object was created by a transaction that
    committed after the reader's begin timestamp, or by one still
    active).  Scans skip such rids; point reads surface the error."""


class IndexError_(ReproError):
    """Base class for index failures (named with a trailing underscore to
    avoid shadowing the builtin :class:`IndexError`)."""


class DuplicateIndexError(IndexError_):
    """An equivalent index already exists on the collection/key."""


class TransactionError(ReproError):
    """Base class for transaction failures."""


class TransactionMemoryError(TransactionError):
    """Too many objects created within one transaction — the simulated
    counterpart of O2's "out of memory" message (paper, Section 3.2)."""


class TransactionStateError(TransactionError):
    """Operation not legal in the transaction's current state."""


class LockConflictError(TransactionError):
    """A lock request conflicts with a lock held by another transaction.

    Raised immediately in *fail-fast* mode (no scheduler attached to the
    :class:`~repro.txn.locks.LockManager`); the subclasses below are the
    two ways a *waiting* request can end without a grant."""


class LockTimeoutError(LockConflictError):
    """A waiting lock request exceeded the configured lock timeout
    (simulated seconds) and the transaction must abort."""


class DeadlockError(LockConflictError):
    """The waits-for graph contains a cycle and this transaction was
    chosen as the victim (the youngest transaction in the cycle)."""


class WriteConflictError(LockConflictError):
    """First-committer-wins violation under snapshot isolation: another
    transaction committed a version of the record after this
    transaction's snapshot was taken.  Subclasses
    :class:`LockConflictError` so the mixers' retry loop
    (:func:`~repro.service.workload.session_loop`) treats it as
    transient and retries."""


class ServiceError(ReproError):
    """Multi-client query-service failures (bad session, stalled
    scheduler, misconfigured workload mix)."""


class GovernorError(ServiceError):
    """Base class for the query service's governed stops (cancellation,
    budgets).

    Deliberately *not* a :class:`LockConflictError`: lock victims are
    transient and worth retrying, a governed query was stopped on
    purpose and retrying it unchanged would only be stopped again."""


class QueryCancelledError(GovernorError):
    """The session's current operation was cancelled
    (:meth:`~repro.service.Session.cancel`).  Delivered cooperatively at
    the next page fault, batch boundary or wait point; the operation
    aborts cleanly (locks released, zero leaked handles)."""


class BudgetExceededError(GovernorError):
    """A per-query or per-session resource budget (pages read, simulated
    busy time, peak live rows) was exceeded.  Checked at the same
    cooperative points as cancellation; a budget that is *exactly*
    exhausted on the final batch does not trip."""


class StatementTimeoutError(BudgetExceededError):
    """A statement ran longer (on the shared simulated timeline) than
    the configured statement timeout."""


class RecoveryError(ReproError):
    """Crash-recovery subsystem failures (bad crash point, restart
    invoked on a system that did not crash, corrupt log)."""


class SimulatedCrashError(RecoveryError):
    """The :class:`~repro.recovery.CrashInjector` killed the system at
    its configured crash point.  Everything volatile — caches, unflushed
    log records, in-place page mutations that never reached the disk —
    is lost; only the durable state survives for restart."""


class QueryError(ReproError):
    """Base class for OQL front-end failures."""


class OQLSyntaxError(QueryError):
    """The OQL text could not be parsed."""


class PlanError(QueryError):
    """The optimizer could not produce an executable plan."""


class BenchError(ReproError):
    """Benchmark-harness failures (unknown figure, bad configuration)."""


class DistError(ReproError):
    """Base class for distributed-execution (``repro.dist``) failures."""


class PartitionError(DistError):
    """Invalid partitioning request (bad scheme, bad shard count)."""


class DistPlanError(DistError):
    """The coordinator could not produce a distributed plan (unsupported
    query shape for the requested shipping strategy)."""


class TwoPCError(DistError):
    """Two-phase-commit protocol violation (commit on a non-active
    distributed transaction, unknown participant, bad crash point)."""


class ReplicationError(DistError):
    """Base class for per-shard replication failures (bad ship mode,
    broken ship sequence, failover protocol violation)."""


class StaleEpochError(ReplicationError):
    """A message carried a shard epoch older than the current one — the
    fence that rejects zombie-primary traffic.  A node deposed by
    failover keeps its old epoch; the coordinator bumped the shard's
    epoch in its decision log before promoting the replica, so any
    request still routed through the deposed node is refused rather
    than allowed to split-brain the shard."""


class ShardUnavailableError(ReplicationError):
    """A shard currently has no serving node: its primary is down and
    no replica has been (or can be) promoted.  Queries and transaction
    branches touching the shard fail fast with this error; the
    workload mixers' :func:`~repro.service.workload.session_loop` backs
    off and retries, so sessions ride through the failover window while other
    shards keep serving."""
