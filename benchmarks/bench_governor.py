"""Overload vs admission control: throughput and per-op latency.

On the shared simulated timeline, "concurrency" is interleaving: while
one session's operation runs, every other admitted session's page
faults, RPCs and lock waits advance the same clock.  Ungoverned, an
operation's in-service latency therefore grows with the number of
concurrent clients — at 12 clients each op wades through ~11 other
sessions' interleaved work, plus the extra lock conflicts and retries
that contention brings.

The :class:`~repro.service.AdmissionGate` (``MixConfig.max_active``)
bounds that: only ``max_active`` sessions run an operation at once, the
rest queue FIFO.  Queued time is visible (and measured) as
``queue_wait_s``, but the *in-service* latency — elapsed minus queued —
stays near the low-load value no matter how many clients are offered.

The sweep runs the same seeded mix per client count, ungoverned and
governed, and asserts exactly that: ungoverned in-service latency
degrades with offered load; governed stays bounded.

Results land in ``results/governor_overload.txt``.  Run with
``python -m pytest benchmarks/bench_governor.py``.
"""

from __future__ import annotations

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.service import MixConfig, WorkloadMixer

CLIENTS = (3, 6, 12)
SCALE = 0.0001
MAX_ACTIVE = 3
OPS = 3
SEED = 11


def _run_cell(clients: int, max_active: int | None):
    """One (offered load, gate) cell on a fresh database."""
    derby = load_derby(DerbyConfig.db_1to3(scale=SCALE))
    config = MixConfig.from_clients(
        clients,
        ops_per_client=OPS,
        seed=SEED,
        lock_timeout_s=0.5,
        max_active=max_active,
    )
    report = WorkloadMixer(derby, config).run()
    latencies = [
        lat for s in report.sessions for lat in s.metrics.latencies_s
    ]
    queue_s = sum(s.metrics.queue_wait_s for s in report.sessions)
    ops = len(latencies)
    mean_lat = sum(latencies) / ops if ops else 0.0
    # In-service latency: elapsed minus the FIFO queue share.  Queued
    # time spent by ops that later aborted is not in ``latencies``, so
    # clamp rather than go negative.
    run_lat = max(0.0, mean_lat - queue_s / ops) if ops else 0.0
    throughput = report.committed / report.elapsed_s if report.elapsed_s else 0.0
    return {
        "clients": clients,
        "gate": max_active,
        "committed": report.committed,
        "aborted": report.aborted,
        "retries": report.retries,
        "mean_lat_s": mean_lat,
        "run_lat_s": run_lat,
        "queue_s": queue_s,
        "peak_queue": report.max_queue_depth,
        "throughput": throughput,
    }


def run_overload_sweep() -> tuple[Table, list]:
    """The same seeded mix per client count, ungoverned and governed."""
    table = Table(
        f"Offered load vs admission control (max_active={MAX_ACTIVE}, "
        f"{OPS} ops/client, seed {SEED})",
        ["Clients", "Gate", "Committed", "Aborted", "Retries",
         "Mean lat (s)", "In-service lat (s)", "Queue (s)", "Peak queue",
         "Txn/s"],
    )
    cells = []
    for clients in CLIENTS:
        for max_active in (None, MAX_ACTIVE):
            cell = _run_cell(clients, max_active)
            cells.append(cell)
            table.add(
                clients,
                "off" if max_active is None else f"{max_active}",
                cell["committed"], cell["aborted"], cell["retries"],
                cell["mean_lat_s"], cell["run_lat_s"], cell["queue_s"],
                cell["peak_queue"], cell["throughput"],
            )
    table.note(
        "ungoverned in-service latency grows with offered load (every "
        "admitted session's work interleaves into every op); the gate "
        "bounds it near the low-load value, shifting the excess into "
        "the measured FIFO queue wait"
    )
    return table, cells


def test_governor_overload_sweep(save_table):
    table, cells = run_overload_sweep()
    save_table("governor_overload", table)
    by = {(c["clients"], c["gate"]): c for c in cells}
    low, high = CLIENTS[0], CLIENTS[-1]
    ungoverned_low = by[(low, None)]["run_lat_s"]
    ungoverned_high = by[(high, None)]["run_lat_s"]
    governed_high = by[(high, MAX_ACTIVE)]["run_lat_s"]
    # Ungoverned degrades with offered load ...
    assert ungoverned_high > 1.5 * ungoverned_low, (
        f"expected ungoverned degradation: {ungoverned_low:.6f}s @ {low} "
        f"clients vs {ungoverned_high:.6f}s @ {high}"
    )
    # ... while the gate bounds in-service latency at the same load.
    assert governed_high < ungoverned_high, (
        f"gate did not bound latency: governed {governed_high:.6f}s vs "
        f"ungoverned {ungoverned_high:.6f}s @ {high} clients"
    )
    # The gate actually queued somebody at the top load.
    assert by[(high, MAX_ACTIVE)]["peak_queue"] > 0
    # Work still completes under the gate.
    assert (
        by[(high, MAX_ACTIVE)]["committed"] >= by[(high, None)]["committed"]
    )
