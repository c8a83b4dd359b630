"""The ``service`` chaos suite: workload mixes under transient faults.

:mod:`repro.recovery.fuzz` crashes random workloads and verifies
restart; this suite covers the *survivable* fault family.  Each case
builds a fresh tiny Derby database, draws a mix shape, budgets,
admission control and a :class:`~repro.recovery.TransientFaultInjector`
(flaky page reads, lock-timeout storms) from one seeded stream, runs the
mix, and asserts the robustness contract:

* **nothing leaks** — when the run returns, the lock table holds zero
  locks and zero waiters, no transaction is still open, no session
  holds a live handle (parked handles are the delayed-free cache, not
  leaks) and no session is stuck in admission;
* **committed-visible** — every write whose ``commit()`` ack returned is
  in the durable state; since the single timeline totally orders
  commits, the last acked write per rid must equal the value read back;
* **uncommitted-gone** — an age that was never committed never shows:
  every hot-set age equals either its preload value or some acked write
  (both clauses: :func:`repro.recovery.harness.check_last_writer`);
* **determinism** — re-running the same seed on a fresh database
  reproduces an identical digest (per-session outcome counters, elapsed
  simulated time, final ages) — the harness's double run.

Lives in the service layer (not :mod:`repro.recovery`) because it
drives the :class:`~repro.service.WorkloadMixer`; the layering rule
forbids recovery → service imports.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.recovery.harness import Suite, check_last_writer
from repro.recovery.transient import TransientFaultInjector
from repro.service.workload import MixConfig, WorkloadMixer

#: Scale of the per-case database: ~30 patients, loads in milliseconds.
_SCALE = 0.00001


def _draw_case(seed: int) -> tuple[MixConfig, TransientFaultInjector]:
    """The case generator: mix shape + budgets + faults from one seed."""
    rng = Random(seed * 99_991 + 17)
    clients = rng.randint(2, 5)
    config = MixConfig.from_clients(
        clients,
        ops_per_client=rng.randint(2, 4),
        seed=seed,
        lock_timeout_s=rng.choice([0.25, 0.5, None]),
        max_retries=rng.randint(1, 3),
        retry_backoff_s=rng.choice([0.005, 0.02]),
        hot_set=rng.choice([4, 8]),
        max_active=rng.choice([None, None, max(1, clients - 1), 2]),
        statement_timeout_s=rng.choice([None, None, 2.0]),
        budget_pages=rng.choice([None, None, 2_000]),
        # A third of the cases run under MVCC snapshot isolation, so the
        # leak / committed-visible / determinism contract is exercised
        # with version chains, first-committer-wins aborts and the
        # governed GC sweep in play.
        isolation=rng.choice(["2pl", "2pl", "si"]),
    )
    faults = TransientFaultInjector(
        seed=seed,
        read_fault_rate=rng.choice([0.002, 0.01, 0.05]),
        read_fault_persistence=rng.choice([0.1, 0.5, 0.9]),
        storm_mean_gap_s=rng.choice([None, 0.2, 0.5]),
        storm_len_s=0.1,
        storm_timeout_s=0.002,
    )
    return config, faults


def _execute(seed: int):
    """Run one seeded fault-injected mix; returns the case's row, digest
    and the evidence its invariants inspect."""
    derby = load_derby(DerbyConfig.db_1to3(scale=_SCALE))
    config, faults = _draw_case(seed)
    # Preload ages *before* the run — the baseline the uncommitted-gone
    # check compares against (deterministic: same reads every run).
    hot = min(config.hot_set, len(derby.patient_rids))
    hot_rids = derby.patient_rids[:hot]

    def ages() -> dict:
        return {
            rid: int(derby.db.manager.get_attr_at(rid, "age"))
            for rid in hot_rids
        }

    preload = ages()
    mixer = WorkloadMixer(derby, config, faults=faults)
    report = mixer.run()
    assert mixer.service is not None
    final = ages()

    digest = tuple(
        (
            s.name,
            s.metrics.committed,
            s.metrics.aborted,
            s.metrics.retries,
            s.metrics.deadlocks,
            s.metrics.timeouts,
            s.metrics.conflicts,
            s.metrics.lock_waits,
            s.metrics.cancelled,
            s.metrics.over_budget,
            s.metrics.io_failures,
            round(s.metrics.busy_s, 9),
        )
        for s in report.sessions
    ) + (
        round(report.elapsed_s, 9),
        report.context_switches,
        report.max_queue_depth,
        tuple(sorted((tuple(r), v) for r, v in final.items())),
    )
    row = {
        "Clients": config.total_clients,
        "Ops": config.ops_per_client,
        "FaultRate": faults.read_fault_rate,
        "Storms": faults.storm_mean_gap_s is not None,
        "Iso": config.isolation,
        "Committed": report.committed,
        "Aborted": report.aborted,
        "Retries": report.retries,
        "Conflicts": report.conflicts,
        "IOFaults": faults.faults_injected,
    }
    evidence = SimpleNamespace(
        isolation=config.isolation,
        service=mixer.service,
        report=report,
        preload=preload,
        write_log=mixer.write_log,
        final=final,
    )
    return row, digest, evidence


# -- invariants ----------------------------------------------------------


def _nothing_leaks(ev) -> list[str]:
    service = ev.service
    failures: list[str] = []
    locks = service.txm.locks
    if locks.lock_count:
        failures.append(f"{locks.lock_count} locks leaked")
    if locks.waiting_count:
        failures.append(f"{locks.waiting_count} lock waiters leaked")
    if service.txm.active_count:
        failures.append(f"{service.txm.active_count} transactions left open")
    for session in service.sessions:
        if session.handles.live_count:
            failures.append(
                f"session {session.name}: {session.handles.live_count} "
                "live handles leaked"
            )
    gate = service.gate
    if gate is not None and gate.queue_depth:
        failures.append(f"{gate.queue_depth} sessions stuck in admission")
    return failures


def _si_reads_lock_free(ev) -> list[str]:
    """Under snapshot isolation the reader profiles resolve version
    chains instead of taking S locks; a single blocked read would
    falsify the MVCC claim, so the contract pins it to zero."""
    if ev.isolation != "si":
        return []
    return [
        f"session {s.name} ({s.profile}) blocked on locks "
        f"{s.metrics.lock_waits}x under si (snapshot reads must be "
        "lock-free)"
        for s in ev.report.sessions
        if s.profile != "updater" and s.metrics.lock_waits
    ]


def _last_writer(ev) -> list[str]:
    return check_last_writer(
        ev.preload, ev.write_log, ev.final,
        describe=lambda rid: f"rid {tuple(rid)}",
    )


def _note(cases) -> str:
    committed = sum(c.row["Committed"] for c in cases)
    faults = sum(c.row["IOFaults"] for c in cases)
    return (
        f"{committed} commits under {faults} injected read faults; "
        "invariants: zero leaked locks/handles, committed-visible, "
        "uncommitted-gone, lock-free si reads, deterministic re-runs"
    )


SERVICE = Suite(
    name="service",
    execute=_execute,
    invariants=[_nothing_leaks, _si_reads_lock_free, _last_writer],
    title="Chaos: {n} seeded fault-injected mix runs",
    note=_note,
)
