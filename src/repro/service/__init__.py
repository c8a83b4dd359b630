"""Multi-client query service: sessions over one shared server tier.

The paper's experiments are strictly single-client; this package makes
"many concurrent clients against one server" a first-class, measurable
scenario:

* :class:`QueryService` — shared disk/server cache/WAL/lock manager plus
  any number of :class:`Session` objects (private client cache, private
  handle table, own transactions, own OQL engine); it also governs them:
  per-statement budgets, cooperative cancellation, FIFO admission
  control (:class:`AdmissionGate`) and the MVCC vacuum;
* :class:`CooperativeScheduler` — deterministic round-robin interleaving
  of session bodies at page-fault, RPC and lock-wait boundaries;
* a lock *wait* protocol (FIFO queues, timeouts, waits-for deadlock
  detection) living in :class:`repro.txn.locks.LockManager`;
* :class:`WorkloadMixer` — parameterized navigator/scanner/updater mixes
  with per-session and aggregate throughput/latency/abort metrics
  (:class:`MixReport`), every client driven by
  :func:`~repro.service.workload.session_loop` with seeded retry backoff
  — as the sharded mixes of :mod:`repro.dist` are;
* :mod:`repro.service.chaos` — the seeded chaos checker that runs mixes
  under injected transient faults and asserts the robustness contract.
"""

from repro.service.scheduler import (
    AdmissionGate,
    CooperativeScheduler,
    Task,
    TaskState,
)
from repro.service.service import QueryService, Session, SessionMetrics
from repro.service.workload import (
    PROFILES,
    MixConfig,
    MixReport,
    SessionReport,
    WorkloadMixer,
)

__all__ = [
    "AdmissionGate",
    "CooperativeScheduler",
    "Task",
    "TaskState",
    "QueryService",
    "Session",
    "SessionMetrics",
    "MixConfig",
    "MixReport",
    "SessionReport",
    "WorkloadMixer",
    "PROFILES",
]
