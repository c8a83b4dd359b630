"""Per-shard replication: the availability and durability benchmark.

Replication (``repro.dist.replication``) exists to buy availability
without giving up correctness, and this benchmark makes it prove both.
One logical Derby 1:3 database is generated **once**; every cell below
reuses it.

1. **Equivalence.**  A 13-query suite — selection sweeps, pushed
   aggregates, order-by/limit top-k and the paper's Section 5 tree
   join — runs cold through the distributed coordinator on a
   *replicated* cluster (sync WAL shipping, one warm standby per
   shard) and on an identically-partitioned *unreplicated* cluster.
   Every answer must match: shipping WAL records must never perturb
   what queries see.
2. **Availability.**  A deterministic mixed workload runs while a
   scheduled kill takes down one shard's primary mid-run, in both
   sync and async ship modes.  The failure detector declares the
   shard dead on the coordinator's simulated timeline, failover
   promotes the standby behind a durable epoch fence, and sessions
   retry through the outage.  Measured: the unavailability window,
   acked-loss windows, and windowed throughput before the kill vs
   after recovery.  Each run executes twice for digest determinism.
3. **Chaos.**  Seeded primary-kill cases (timed kills, kills at every
   ship point, double failures at every promote point) through the
   committed-visible / uncommitted-gone oracle extended with
   decided-but-unacked writes.

Hard gates — the test fails on any of them:

* 100% semantic equivalence for every query on the replicated cluster;
* zero acked-write loss in **sync** mode across every seeded
  primary-kill chaos case (200 of them), zero
  leaked locks/sessions, every kill kind and crash point exercised;
* the sync availability run rides through the kill (nothing gives
  up), the outage stays within the gated simulated window, and
  throughput recovers to >= 80% of its pre-kill rate within one
  measurement window of promotion;
* double runs are digest-identical (workload and chaos).

Outputs: ``BENCH_replication.json`` (repo root),
``results/replication_availability.txt`` and
``results/replication_availability.csv`` (per-shard rows: ship lag,
ack latency, failover count, downtime, loss windows).
Run with ``python -m pytest benchmarks/bench_replication.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench.report import Table
from repro.bench.workloads import selection_query_text, tree_query_text
from repro.derby import DerbyConfig
from repro.derby.generator import generate
from repro.dist import (
    FAILOVER,
    REPLICATION_KILL_POINTS,
    Coordinator,
    ShardedMixConfig,
    ShardedWorkload,
    failover_coverage,
    load_sharded,
)
from repro.recovery import run_suite, suite_fingerprint
from repro.stats import records_to_csv

from conftest import same_rows

SCALE = 0.005         # 5_000 providers / 15_000 patients
N_SHARDS = 2
SCHEME = "hash"
CHAOS_CASES_SYNC = 200
CHAOS_CASES_ASYNC = 50
#: Gate: post-recovery throughput >= RECOVERY_FLOOR x pre-kill.
RECOVERY_FLOOR = 0.8
#: Gate: a single failover may not black out the shard longer than
#: this (lease 0.15 + grace 0.1 + heartbeat slack + promotion work).
OUTAGE_CEILING_S = 0.5
#: The primary is killed once this fraction of the calibrated
#: (kill-free) run's ops have completed; the throughput window width
#: equals the kill time, so the pre-kill window spans the whole
#: healthy prefix.  Op cost scales with the database, so fixed kill
#: times would measure empty windows at larger scales.
KILL_FRACTION = 1 / 3


def query_suite(config: DerbyConfig) -> list[tuple[str, str]]:
    """The 13-query equivalence suite: every family the coordinator
    plans, at several selectivities."""
    thr10 = config.num_threshold(10.0)
    thr50 = config.num_threshold(50.0)
    return [
        ("scan 1%", selection_query_text(config, 1.0)),
        ("scan 5%", selection_query_text(config, 5.0)),
        ("scan 10%", selection_query_text(config, 10.0)),
        ("scan 25%", selection_query_text(config, 25.0)),
        ("scan 50%", selection_query_text(config, 50.0)),
        ("scan all", "select p.age from p in Patients"),
        ("count 10%",
         f"select count(*) from p in Patients where p.num > {thr10}"),
        ("count 50%",
         f"select count(*) from p in Patients where p.num > {thr50}"),
        ("avg 10%",
         f"select avg(p.age) from p in Patients where p.num > {thr10}"),
        ("avg 50%",
         f"select avg(p.age) from p in Patients where p.num > {thr50}"),
        ("top-10",
         f"select p.age from p in Patients where p.num > {thr10} "
         "order by p.age desc limit 10"),
        ("top-50",
         f"select p.age from p in Patients where p.num > {thr50} "
         "order by p.age desc limit 50"),
        ("tree join", tree_query_text(config, 30, 50)),
    ]


@dataclass
class EquivRun:
    """One query, replicated vs unreplicated."""

    label: str
    rows: int
    elapsed_plain_s: float
    elapsed_repl_s: float
    overhead_pct: float
    equivalent: bool


@dataclass
class AvailabilityRun:
    """One kill-under-load workload at one ship mode."""

    ship_mode: str
    victim: int
    committed: int
    aborted: int
    unavailable_errors: int
    gave_up: int
    elapsed_s: float
    kills: int
    failovers: int
    unavailable_s: float
    loss_window_records: int
    pre_kill_ops_s: float
    post_recovery_ops_s: float
    recovery_ratio: float
    kill_at_s: float
    window_s: float
    deterministic: bool


@dataclass
class ShardCsvRow:
    """One shard's replication meters; its fields are the CSV columns."""

    label: str
    n_shards: int
    ship_mode: str
    shard: int
    ship_msgs: int
    shipped_records: int
    shipped_bytes: int
    ship_lag_records: int
    ack_wait_s: float
    failovers: int
    epoch: int
    unavailable_s: float
    loss_window_records: int


# -- equivalence ------------------------------------------------------------

def run_equivalence(config: DerbyConfig, logical) -> list[EquivRun]:
    queries = query_suite(config)
    plain = load_sharded(config, N_SHARDS, scheme=SCHEME, logical=logical)
    repl = load_sharded(
        config, N_SHARDS, scheme=SCHEME, logical=logical, replicas=1,
        ship_mode="sync",
    )
    plain_coord, repl_coord = Coordinator(plain), Coordinator(repl)
    runs = []
    for label, text in queries:
        plain.start_cold()
        base_rows = plain_coord.execute(text)
        base_s = plain.elapsed_s
        repl.start_cold()
        rows = repl_coord.execute(text)
        repl_s = repl.elapsed_s
        runs.append(EquivRun(
            label=label,
            rows=len(rows),
            elapsed_plain_s=base_s,
            elapsed_repl_s=repl_s,
            overhead_pct=(
                (repl_s - base_s) / base_s * 100.0 if base_s > 0 else 0.0
            ),
            equivalent=same_rows(base_rows, rows, "order by" in text),
        ))
    return runs


# -- availability -----------------------------------------------------------

def _windowed_ops_s(op_times: list[float], start: float, width: float) -> float:
    if width <= 0:
        return 0.0
    return sum(1 for t in op_times if start <= t < start + width) / width


def _availability_mix() -> ShardedMixConfig:
    return ShardedMixConfig(
        scanners=2, updaters=4, ops_per_client=18, seed=7,
        hot_set=12, scan_selectivity_pct=2.0,
    )


def _calibrate(config: DerbyConfig, logical, ship_mode: str) -> float:
    """Run the availability mix once with no kill and place the kill
    where ops actually land on the simulated clock."""
    cluster = load_sharded(
        config, N_SHARDS, scheme=SCHEME, logical=logical, replicas=1,
        ship_mode=ship_mode, max_lag_records=8,
    )
    cluster.start_cold()
    workload = ShardedWorkload(cluster, _availability_mix())
    workload.run()
    times = workload.op_times
    return times[int(len(times) * KILL_FRACTION)]


def _one_availability(
    config: DerbyConfig, logical, ship_mode: str, kill_at_s: float
) -> tuple[tuple, AvailabilityRun, list[ShardCsvRow]]:
    cluster = load_sharded(
        config, N_SHARDS, scheme=SCHEME, logical=logical, replicas=1,
        ship_mode=ship_mode, max_lag_records=8,
    )
    cluster.start_cold()
    victim = 0
    cluster.schedule_kill(victim, at_s=kill_at_s)
    workload = ShardedWorkload(cluster, _availability_mix())
    report = workload.run()
    outage = cluster.shard_unavailable_s(victim)
    recovery_t = kill_at_s + outage
    window_s = kill_at_s
    pre = _windowed_ops_s(workload.op_times, 0.0, window_s)
    post = _windowed_ops_s(workload.op_times, recovery_t, window_s)
    digest = (
        tuple(
            (s.name, s.metrics.committed, s.metrics.aborted,
             s.metrics.retries, s.metrics.unavailable)
            for s in report.sessions
        ),
        round(report.elapsed_s, 9),
        report.context_switches,
        cluster.kills,
        tuple(cluster.route.epochs),
        tuple(cluster.route.failovers),
        tuple(sorted(cluster.loss_windows.items())),
        round(outage, 9),
        len(workload.op_times),
    )
    run = AvailabilityRun(
        ship_mode=ship_mode,
        victim=victim,
        committed=report.committed,
        aborted=report.aborted,
        unavailable_errors=report.unavailable,
        gave_up=report.gave_up,
        elapsed_s=report.elapsed_s,
        kills=cluster.kills,
        failovers=sum(cluster.route.failovers),
        unavailable_s=outage,
        loss_window_records=cluster.loss_windows.get(victim, 0),
        pre_kill_ops_s=pre,
        post_recovery_ops_s=post,
        recovery_ratio=(post / pre if pre > 0 else 0.0),
        kill_at_s=kill_at_s,
        window_s=window_s,
        deterministic=False,  # filled by the caller's double run
    )
    csv_rows = []
    for sid in range(cluster.n_shards):
        link = cluster.links.get(sid) or cluster.retired_links.get(sid)
        csv_rows.append(ShardCsvRow(
            label=f"avail-{ship_mode}",
            n_shards=cluster.n_shards,
            ship_mode=ship_mode,
            shard=sid,
            ship_msgs=link.ship_msgs if link else 0,
            shipped_records=link.shipped_records if link else 0,
            shipped_bytes=link.shipped_bytes if link else 0,
            ship_lag_records=link.lag_records() if link else 0,
            ack_wait_s=link.ack_wait_s if link else 0.0,
            failovers=cluster.route.failovers[sid],
            epoch=cluster.route.epochs[sid],
            unavailable_s=cluster.shard_unavailable_s(sid),
            loss_window_records=cluster.loss_windows.get(sid, 0),
        ))
    return digest, run, csv_rows


def run_availability(
    config: DerbyConfig, logical
) -> tuple[list[AvailabilityRun], list[ShardCsvRow]]:
    runs, csv_rows = [], []
    for ship_mode in ("sync", "async"):
        kill_at = _calibrate(config, logical, ship_mode)
        # Twice, for determinism.
        digest, run, rows = _one_availability(
            config, logical, ship_mode, kill_at
        )
        digest2, __, ___ = _one_availability(
            config, logical, ship_mode, kill_at
        )
        run.deterministic = digest == digest2
        runs.append(run)
        csv_rows.extend(rows)
    return runs, csv_rows


# -- scoring and reporting --------------------------------------------------

def summarize(
    equiv: list[EquivRun],
    avail: list[AvailabilityRun],
    chaos_sync: list,
    chaos_async: list,
) -> dict:
    mismatches = [r for r in equiv if not r.equivalent]
    sync = next(r for r in avail if r.ship_mode == "sync")
    return {
        "cells": len(equiv),
        "equivalent": len(equiv) - len(mismatches),
        "mismatches": len(mismatches),
        "mean_overhead_pct": (
            sum(r.overhead_pct for r in equiv) / len(equiv) if equiv else 0.0
        ),
        "sync_outage_s": sync.unavailable_s,
        "sync_recovery_ratio": sync.recovery_ratio,
        "sync_gave_up": sync.gave_up,
        "async_loss_window": next(
            r.loss_window_records for r in avail if r.ship_mode == "async"
        ),
        "chaos_sync_cases": len(chaos_sync),
        "chaos_sync_ok": sum(1 for c in chaos_sync if c.ok),
        "chaos_sync_acked_loss": sum(
            c.loss_window or 0 for c in chaos_sync
        ),
        "chaos_sync_failed_seeds": [c.seed for c in chaos_sync if not c.ok],
        "chaos_sync_sha256": suite_fingerprint(chaos_sync),
        "chaos_async_cases": len(chaos_async),
        "chaos_async_ok": sum(1 for c in chaos_async if c.ok),
        "chaos_async_failed_seeds": [c.seed for c in chaos_async if not c.ok],
        "chaos_async_sha256": suite_fingerprint(chaos_async),
        "chaos_kinds": failover_coverage(chaos_sync + chaos_async),
        "chaos_points": {
            point: sum(
                1 for c in chaos_sync + chaos_async if c.point == point
            )
            for point in REPLICATION_KILL_POINTS
        },
    }


def build_table(
    equiv: list[EquivRun],
    avail: list[AvailabilityRun],
    summary: dict,
) -> Table:
    table = Table(
        "Replication: equivalence, availability and acked-loss windows "
        f"({N_SHARDS} shards, 1 warm standby each)",
        ["Query", "Rows", "Plain (s)", "Replicated (s)", "Overhead",
         "Valid"],
    )
    for r in equiv:
        table.add(
            r.label, r.rows, r.elapsed_plain_s, r.elapsed_repl_s,
            f"{r.overhead_pct:+.1f}%", "ok" if r.equivalent else "MISMATCH",
        )
    table.note(
        f"{summary['equivalent']}/{summary['cells']} queries match the "
        "unreplicated cluster's answer (sync shipping)"
    )
    for a in avail:
        table.note(
            f"{a.ship_mode} kill-under-load (kill at t={a.kill_at_s:.2f}s): "
            f"{a.committed} committed, "
            f"{a.unavailable_errors} unavailable errors retried "
            f"({a.gave_up} gave up), shard {a.victim} down "
            f"{a.unavailable_s:.4f} s, loss window "
            f"{a.loss_window_records} records, throughput "
            f"{a.pre_kill_ops_s:.1f} -> {a.post_recovery_ops_s:.1f} ops/s "
            f"({a.recovery_ratio:.0%} recovered)"
            + ("" if a.deterministic else " [NON-DETERMINISTIC]")
        )
    table.note(
        f"chaos: {summary['chaos_sync_ok']}/{summary['chaos_sync_cases']} "
        f"sync + {summary['chaos_async_ok']}/"
        f"{summary['chaos_async_cases']} async cases clean; "
        f"sync acked loss {summary['chaos_sync_acked_loss']} records; "
        "kinds " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary["chaos_kinds"].items())
        )
    )
    return table


def check(
    equiv: list[EquivRun],
    avail: list[AvailabilityRun],
    chaos_sync: list,
    chaos_async: list,
    summary: dict,
) -> list[str]:
    failures = []
    for r in equiv:
        if not r.equivalent:
            failures.append(f"semantic mismatch under replication: {r.label}")
    sync = next(r for r in avail if r.ship_mode == "sync")
    if sync.kills != 1 or sync.failovers != 1:
        failures.append(
            f"sync availability run: expected 1 kill + 1 failover, got "
            f"{sync.kills} + {sync.failovers}"
        )
    if sync.gave_up:
        failures.append(
            f"sync availability run: {sync.gave_up} op(s) gave up during "
            "a single recoverable failover"
        )
    if sync.loss_window_records:
        failures.append(
            f"sync availability run lost {sync.loss_window_records} "
            "acked record(s)"
        )
    if sync.unavailable_s > OUTAGE_CEILING_S:
        failures.append(
            f"sync outage {sync.unavailable_s:.4f}s exceeds the "
            f"{OUTAGE_CEILING_S:.2f}s ceiling"
        )
    if sync.recovery_ratio < RECOVERY_FLOOR:
        failures.append(
            f"throughput recovered to only {sync.recovery_ratio:.0%} of "
            f"pre-kill within {sync.window_s:.2f}s "
            f"(floor {RECOVERY_FLOOR:.0%})"
        )
    for a in avail:
        if not a.deterministic:
            failures.append(
                f"{a.ship_mode} availability run is not digest-identical "
                "across double runs"
            )
    for c in chaos_sync:
        if not c.ok:
            failures.append(
                f"sync chaos seed={c.seed} ({c.kind}/{c.point}): "
                + "; ".join(c.failures)
            )
        if c.loss_window:
            failures.append(
                f"sync chaos seed={c.seed} reported a nonzero acked-loss "
                f"window ({c.loss_window} records)"
            )
    for c in chaos_async:
        if not c.ok:
            failures.append(
                f"async chaos seed={c.seed} ({c.kind}/{c.point}): "
                + "; ".join(c.failures)
            )
    for kind, count in summary["chaos_kinds"].items():
        if count == 0:
            failures.append(f"kill kind never exercised: {kind}")
    for point, count in summary["chaos_points"].items():
        if count == 0:
            failures.append(f"replication crash point never exercised: {point}")
    return failures


def test_replication_availability(save_table, save_json):
    config = DerbyConfig.db_1to3(scale=SCALE)
    logical = generate(config)
    equiv = run_equivalence(config, logical)
    avail, csv_rows = run_availability(config, logical)
    chaos_sync = run_suite(FAILOVER, CHAOS_CASES_SYNC, ship_mode="sync")
    chaos_async = run_suite(
        FAILOVER, CHAOS_CASES_ASYNC, base_seed=10_000, ship_mode="async"
    )

    summary = summarize(equiv, avail, chaos_sync, chaos_async)
    table = build_table(equiv, avail, summary)
    save_table(
        "replication_availability",
        str(table) + "\n" + str(FAILOVER.summarize(chaos_sync + chaos_async)),
    )
    save_table(
        "replication_availability.csv", records_to_csv(ShardCsvRow, csv_rows)
    )
    save_json("replication", {
        "benchmark": "replication_availability",
        "scale": SCALE,
        "n_shards": N_SHARDS,
        "scheme": SCHEME,
        "kill_fraction": KILL_FRACTION,
        "recovery_floor": RECOVERY_FLOOR,
        "outage_ceiling_s": OUTAGE_CEILING_S,
        "summary": summary,
        "equivalence": [asdict(r) for r in equiv],
        "availability": [asdict(a) for a in avail],
    })
    failures = check(equiv, avail, chaos_sync, chaos_async, summary)
    assert not failures, "\n".join(failures)
