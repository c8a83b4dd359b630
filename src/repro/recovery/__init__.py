"""Crash recovery: physical WAL replay, checkpoints, fault injection.

:mod:`repro.recovery.aries` is the ARIES-lite restart driver
(analysis/redo/undo over the durable log) and the checkpoint writer.
:mod:`repro.recovery.crash` owns the crash semantics —
:class:`NamedPointInjector`, the base of every injector that fires at a
named point, its whole-system kind :class:`CrashInjector`, and
:func:`crash_database`, which discards everything volatile.

:mod:`repro.recovery.harness` is the one chaos harness every seeded
fault checker runs under (``python -m repro chaos --suite ...``), and
:mod:`repro.recovery.fuzz` its ``recovery`` suite (:data:`RECOVERY`):
crash random workloads at every named crash point and verify the
committed-visible / uncommitted-gone contract after restart.  The
``service``, ``2pc`` and ``failover`` suites live in the layers above
(:mod:`repro.service.chaos`, :mod:`repro.dist.chaos`).

:mod:`repro.recovery.transient` covers the *survivable* failure modes:
a :class:`TransientFaultInjector` (rate-based, not named-point) arms
seeded transient page-read faults (retried with backoff by the disk,
escalated to :class:`~repro.errors.PermanentIOError` when sticky) and
lock-timeout storms.

See ``docs/recovery.md`` for the log format, the recovery protocol and
the suite table.
"""

from repro.recovery.aries import (
    RecoveryReport,
    redo_apply,
    restart,
    take_checkpoint,
)
from repro.recovery.crash import (
    CRASH_POINTS,
    CrashInjector,
    NamedPointInjector,
    crash_database,
)
from repro.recovery.fuzz import RECOVERY
from repro.recovery.harness import (
    Suite,
    check_last_writer,
    run_case,
    run_suite,
    suite_fingerprint,
)
from repro.recovery.transient import TransientFaultInjector

__all__ = [
    "CRASH_POINTS",
    "CrashInjector",
    "NamedPointInjector",
    "RECOVERY",
    "RecoveryReport",
    "Suite",
    "TransientFaultInjector",
    "check_last_writer",
    "crash_database",
    "redo_apply",
    "restart",
    "run_case",
    "run_suite",
    "suite_fingerprint",
    "take_checkpoint",
]
