"""Seeded transient-fault injection: flaky reads and lock-timeout storms.

:class:`~repro.recovery.crash.CrashInjector` models the *fatal* failure
mode — the whole process dies and restart recovery earns its keep.  This
module models the *survivable* one: faults the system is expected to
absorb while the workload keeps running.

Two fault families, each drawn from its **own** seeded random stream so
that arming one does not perturb the other (and neither perturbs the
workload's randomness):

* **transient page-read faults** — each disk read attempt may fail with
  probability ``read_fault_rate``; once a page is faulting, each *retry*
  fails again with probability ``read_fault_persistence``.  The
  :class:`~repro.storage.disk.DiskManager` retries with exponential
  backoff and escalates to :class:`~repro.errors.PermanentIOError` past
  its retry budget.
* **lock-timeout storms** — precomputed windows of simulated time during
  which the effective lock timeout collapses to ``storm_timeout_s``, so
  patient waiters abort in bursts.  Windows are generated lazily from
  the storm stream alone, keyed to the simulated clock; they do not
  depend on what the workload does, which keeps runs deterministic.

Determinism: same seed + same workload ⇒ the same faults hit the same
reads, so a chaos run (the :data:`repro.service.chaos.SERVICE` suite)
reproduces bit-for-bit.
"""

from __future__ import annotations

from random import Random


class TransientFaultInjector:
    """Arms seeded transient faults on a database's disk and lock table.

    Duck-typed like :class:`~repro.recovery.crash.CrashInjector`: the
    disk consults :meth:`read_fails` per read attempt, the lock manager
    consults :meth:`lock_timeout_s` when expiring waiters.  ``arm`` /
    ``disarm`` attach and detach both hooks.
    """

    def __init__(
        self,
        seed: int = 0,
        read_fault_rate: float = 0.0,
        read_fault_persistence: float = 0.25,
        storm_mean_gap_s: float | None = None,
        storm_len_s: float = 0.05,
        storm_timeout_s: float = 0.002,
    ):
        if not 0.0 <= read_fault_rate <= 1.0:
            raise ValueError(f"read_fault_rate not in [0, 1]: {read_fault_rate}")
        if not 0.0 <= read_fault_persistence <= 1.0:
            raise ValueError(
                f"read_fault_persistence not in [0, 1]: {read_fault_persistence}"
            )
        if storm_mean_gap_s is not None and storm_mean_gap_s <= 0:
            raise ValueError(f"storm_mean_gap_s must be > 0: {storm_mean_gap_s}")
        self.seed = seed
        self.read_fault_rate = read_fault_rate
        self.read_fault_persistence = read_fault_persistence
        #: Mean simulated seconds between storms (``None``: no storms).
        self.storm_mean_gap_s = storm_mean_gap_s
        self.storm_len_s = storm_len_s
        self.storm_timeout_s = storm_timeout_s
        # Independent streams: read faults must not shift when storms
        # are reconfigured, and vice versa.
        self._read_rng = Random(seed * 7_919 + 1)
        self._storm_rng = Random(seed * 7_919 + 2)
        #: Generated storm windows, ``(start_s, end_s)``, ascending.
        self._storms: list[tuple[float, float]] = []
        self._storm_horizon_s = 0.0
        #: Transient read faults injected (mirrors ``counters.io_faults``
        #: for the reads this injector faulted).
        self.faults_injected = 0

    def for_node(self, node_id: int, replica: int = 0) -> "TransientFaultInjector":
        """A child injector for one shard of a cluster, with the same
        fault configuration but an independent seed derived from this
        injector's seed, the node id and the replica index (0 = the
        primary, 1+ = its replicas).

        Sharing one injector across shards would make fault placement
        depend on the global interleaving of reads (whichever shard
        draws next consumes the stream), so adding a shard would reshuffle
        every other shard's faults.  Per-node derived streams keep each
        node's fault schedule a function of (seed, node id, replica)
        alone.  The replica term uses a stride (1009) that is coprime
        with the node stride (31), so a replica's seed never collides
        with any primary's: before replication landed, a primary and
        its replica would have derived the *same* child seed and drawn
        perfectly correlated fault streams — the opposite of
        independent failures."""
        return TransientFaultInjector(
            seed=self.seed * 1_000_003 + 31 * node_id + 1_009 * replica + 7,
            read_fault_rate=self.read_fault_rate,
            read_fault_persistence=self.read_fault_persistence,
            storm_mean_gap_s=self.storm_mean_gap_s,
            storm_len_s=self.storm_len_s,
            storm_timeout_s=self.storm_timeout_s,
        )

    # -- arming ----------------------------------------------------------

    def arm(self, db, locks) -> None:
        """Attach to a database's disk and its lock table."""
        db.disk.faults = self
        locks.injector = self

    def disarm(self, db, locks) -> None:
        if db.disk.faults is self:
            db.disk.faults = None
        if locks.injector is self:
            locks.injector = None

    # -- transient read faults ------------------------------------------

    def read_fails(self, file_id: int, page_no: int, attempt: int) -> bool:
        """Does this read attempt fail?  Drawn per attempt: the first
        attempt faults at ``read_fault_rate``, retries of a faulting
        read at ``read_fault_persistence`` (a sticky fault escalates)."""
        rate = (
            self.read_fault_rate if attempt == 0
            else self.read_fault_persistence
        )
        if rate <= 0.0:
            return False
        failed = self._read_rng.random() < rate
        if failed:
            self.faults_injected += 1
        return failed

    # -- lock-timeout storms --------------------------------------------

    def lock_timeout_s(
        self, base_s: float | None, now_s: float
    ) -> float | None:
        """The effective lock timeout at simulated time ``now_s``."""
        if self.storm_mean_gap_s is None or not self.storm_active(now_s):
            return base_s
        if base_s is None:
            return self.storm_timeout_s
        return min(base_s, self.storm_timeout_s)

    def storm_active(self, now_s: float) -> bool:
        """Is a lock-timeout storm in progress at ``now_s``?"""
        if self.storm_mean_gap_s is None:
            return False
        self._extend_storms(now_s)
        return any(start <= now_s < end for start, end in self._storms)

    def _extend_storms(self, horizon_s: float) -> None:
        """Generate windows up to ``horizon_s`` from the storm stream."""
        while self._storm_horizon_s <= horizon_s:
            gap = self.storm_mean_gap_s * self._storm_rng.uniform(0.5, 1.5)
            start = self._storm_horizon_s + gap
            end = start + self.storm_len_s
            self._storms.append((start, end))
            self._storm_horizon_s = end
