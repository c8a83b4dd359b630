"""Horizontal sharding: the scaling and correctness benchmark.

The distributed layer (``repro.dist``) must pay for its complexity the
way every other subsystem here does — against measured, gated truth.
One logical Derby 1:3 database is generated **once**, then split 1 / 2 /
4 / 8 / 16 / 32 ways (multiplicative-hash partitioning on the provider
``upin``, patients co-located with their provider).  For every shard
count this benchmark:

1. runs the query suite — selection sweeps (1%, 10%, 50%), pushed
   aggregates (count, avg), an order-by/limit top-k and the paper's
   Section 5 tree join — cold through the distributed
   :class:`~repro.dist.Coordinator`;
2. compares every answer against a **single-node** engine over the same
   logical database (multiset equality; ordered queries exactly);
3. runs a deterministic mixed workload (scanners + cross-shard 2PC
   updaters) and records commit/abort/deadlock/retry outcomes;
4. runs seeded two-phase-commit chaos cases (crash points before /
   during / after prepare and commit) through the committed-visible /
   uncommitted-gone oracle, each case executed twice for digest
   determinism.

Hard gates — the test fails on any of them:

* 100% semantic equivalence for every (query, shard count) cell;
* the 8-shard 10% scan runs at least **4x** faster than 1-shard
  (elapsed simulated time on the coordinator's timeline);
* every seeded 2PC chaos case passes its oracle, every crash point in
  ``TWOPC_CRASH_POINTS`` is exercised at least once;
* the mixed workload commits every operation it did not deliberately
  abort (no leaked sessions, no unexplained give-ups at 1 shard).

Outputs: ``BENCH_sharding.json`` (repo root),
``results/sharding_scaling.txt`` and ``results/sharding_scaling.csv``
(per-shard rows: pages, messages, shipped rows, busy/wait seconds).
Run with ``python -m pytest benchmarks/bench_sharding.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench.report import Table
from repro.bench.workloads import selection_query_text, tree_query_text
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.generator import generate
from repro.dist import (
    TWOPC,
    TWOPC_CRASH_POINTS,
    Coordinator,
    ShardedMixConfig,
    ShardedWorkload,
    load_sharded,
    point_coverage,
)
from repro.dist.exchange import ROW_WIRE_BYTES
from repro.oql import Catalog, OQLEngine
from repro.recovery import run_suite, suite_fingerprint
from repro.stats import records_to_csv

from conftest import same_rows

SCALE = 0.01          # 10_000 providers / 30_000 patients
SHARD_COUNTS = (1, 2, 4, 8, 16, 32)
SCHEME = "hash"
CHAOS_CASES = 20
#: The gate pair: the 10% scan must scale at least SPEEDUP_FLOOR x
#: from 1 shard to GATE_SHARDS shards.
GATE_QUERY = "scan 10%"
GATE_SHARDS = 8
SPEEDUP_FLOOR = 4.0


def query_suite(config: DerbyConfig) -> list[tuple[str, str]]:
    """(label, OQL text) cells, every family the coordinator plans."""
    thr10 = config.num_threshold(10.0)
    return [
        ("scan 1%", selection_query_text(config, 1.0)),
        ("scan 10%", selection_query_text(config, 10.0)),
        ("scan 50%", selection_query_text(config, 50.0)),
        ("count 10%",
         f"select count(*) from p in Patients where p.num > {thr10}"),
        ("avg age",
         f"select avg(p.age) from p in Patients where p.num > {thr10}"),
        ("top-10",
         f"select p.age from p in Patients where p.num > {thr10} "
         "order by p.age desc limit 10"),
        ("tree join", tree_query_text(config, 30, 50)),
    ]


@dataclass
class QueryRun:
    """One (query, shard count) cell."""

    label: str
    n_shards: int
    rows: int
    elapsed_s: float
    total_busy_s: float
    msgs: int
    speedup: float        # vs the same query at 1 shard
    equivalent: bool


@dataclass
class ShardRow:
    """One shard's meters for one cell; its fields are the CSV columns."""

    label: str
    n_shards: int
    scheme: str
    shard: int
    providers: int
    patients: int
    busy_s: float
    remote_wait_s: float
    msgs: int
    msg_bytes: int
    pages_read: int
    pages_written: int
    rows_shipped: int
    lock_wait_s: float


@dataclass
class MixRun:
    """The mixed workload's outcome at one shard count."""

    n_shards: int
    committed: int
    aborted: int
    deadlocks: int
    timeouts: int
    retries: int
    gave_up: int
    elapsed_s: float
    throughput_ops_s: float
    msgs: int
    lock_wait_s: float


def _measure_cluster(
    cluster,
    queries: list[tuple[str, str]],
    baseline: dict[str, list],
    one_shard_s: dict[str, float],
    csv_rows: list[ShardRow],
) -> list[QueryRun]:
    coordinator = Coordinator(cluster)
    sizes = cluster.part.shard_sizes()
    runs = []
    for label, text in queries:
        cluster.start_cold()
        rows = coordinator.execute(text)
        elapsed = cluster.elapsed_s
        for node in cluster.nodes:
            counters = node.db.disk.counters
            csv_rows.append(ShardRow(
                label=label,
                n_shards=cluster.n_shards,
                scheme=cluster.part.scheme,
                shard=node.shard_id,
                providers=sizes[node.shard_id][0],
                patients=sizes[node.shard_id][1],
                busy_s=node.busy_s,
                remote_wait_s=node.remote_wait_s,
                msgs=node.msgs,
                msg_bytes=node.msg_bytes,
                pages_read=counters.disk_reads,
                pages_written=counters.disk_writes,
                rows_shipped=node.msg_bytes // ROW_WIRE_BYTES,
                lock_wait_s=0.0,
            ))
        if cluster.n_shards == 1:
            one_shard_s[label] = elapsed
        runs.append(QueryRun(
            label=label,
            n_shards=cluster.n_shards,
            rows=len(rows),
            elapsed_s=elapsed,
            total_busy_s=cluster.total_busy_s,
            msgs=cluster.msgs,
            speedup=(
                one_shard_s[label] / elapsed
                if elapsed > 0 and label in one_shard_s
                else 1.0
            ),
            equivalent=same_rows(baseline[label], rows, "order by" in text),
        ))
    return runs


def _run_mix(cluster) -> MixRun:
    config = ShardedMixConfig(
        scanners=2, updaters=4, ops_per_client=4, seed=7,
        hot_set=12, scan_selectivity_pct=5.0,
    )
    report = ShardedWorkload(cluster, config).run()
    return MixRun(
        n_shards=cluster.n_shards,
        committed=report.committed,
        aborted=report.aborted,
        deadlocks=report.deadlocks,
        timeouts=report.timeouts,
        retries=report.retries,
        gave_up=report.gave_up,
        elapsed_s=report.elapsed_s,
        throughput_ops_s=report.throughput_ops_s,
        msgs=cluster.msgs,
        lock_wait_s=sum(s.metrics.lock_wait_s for s in report.sessions),
    )


def run_benchmark() -> tuple[
    list[QueryRun], list[MixRun], list[ShardRow], list
]:
    config = DerbyConfig.db_1to3(scale=SCALE)
    logical = generate(config)
    queries = query_suite(config)

    derby = load_derby(config, logical=logical)
    engine = OQLEngine(Catalog.from_derby(derby))
    baseline = {}
    for label, text in queries:
        derby.start_cold_run()
        baseline[label] = engine.execute(text)

    query_runs: list[QueryRun] = []
    mix_runs: list[MixRun] = []
    csv_rows: list[ShardRow] = []
    one_shard_s: dict[str, float] = {}
    for n in SHARD_COUNTS:
        cluster = load_sharded(config, n, scheme=SCHEME, logical=logical)
        query_runs.extend(_measure_cluster(
            cluster, queries, baseline, one_shard_s, csv_rows
        ))
        # The mix mutates patient ages, so it runs after every
        # equivalence measurement on this cluster — and each shard
        # count gets a freshly loaded cluster.
        mix_runs.append(_run_mix(cluster))

    chaos = run_suite(TWOPC, CHAOS_CASES)
    return query_runs, mix_runs, csv_rows, chaos


# -- scoring and reporting --------------------------------------------------

def summarize(
    query_runs: list[QueryRun], mix_runs: list[MixRun], chaos: list
) -> dict:
    mismatches = [r for r in query_runs if not r.equivalent]
    gate = {
        r.n_shards: r.elapsed_s
        for r in query_runs
        if r.label == GATE_QUERY
    }
    gate_speedup = (
        gate[1] / gate[GATE_SHARDS]
        if 1 in gate and GATE_SHARDS in gate and gate[GATE_SHARDS] > 0
        else None
    )
    return {
        "cells": len(query_runs),
        "equivalent": len(query_runs) - len(mismatches),
        "mismatches": len(mismatches),
        "gate_query": GATE_QUERY,
        "gate_shards": GATE_SHARDS,
        "gate_speedup": gate_speedup,
        "max_speedup": max((r.speedup for r in query_runs), default=1.0),
        "mix_committed": sum(m.committed for m in mix_runs),
        "mix_aborted": sum(m.aborted for m in mix_runs),
        "mix_gave_up": sum(m.gave_up for m in mix_runs),
        "chaos_cases": len(chaos),
        "chaos_ok": sum(1 for c in chaos if c.ok),
        "chaos_failed_seeds": [c.seed for c in chaos if not c.ok],
        "chaos_sha256": suite_fingerprint(chaos),
        "chaos_points": point_coverage(chaos),
    }


def build_table(
    query_runs: list[QueryRun],
    mix_runs: list[MixRun],
    summary: dict,
) -> Table:
    table = Table(
        "Sharded scaling: distributed queries vs single node "
        "(cold, hash-partitioned, validated)",
        ["Query", "Shards", "Rows", "Elapsed (s)",
         "Busy (s)", "Msgs", "Speedup", "Valid"],
    )
    for r in query_runs:
        table.add(
            r.label, r.n_shards, r.rows,
            r.elapsed_s, r.total_busy_s, r.msgs, r.speedup,
            "ok" if r.equivalent else "MISMATCH",
        )
    table.note(
        f"{summary['equivalent']}/{summary['cells']} cells match the "
        "single-node answer (multiset equality; ordered queries exact)"
    )
    if summary["gate_speedup"] is not None:
        table.note(
            f"{GATE_QUERY} at {GATE_SHARDS} shards: "
            f"{summary['gate_speedup']:.2f}x over 1 shard "
            f"(floor {SPEEDUP_FLOOR:.1f}x)"
        )
    for m in mix_runs:
        table.note(
            f"mix @ {m.n_shards} shard(s): {m.committed} committed, "
            f"{m.aborted} aborted ({m.deadlocks} deadlocks, "
            f"{m.retries} retries, {m.gave_up} gave up) in "
            f"{m.elapsed_s:.2f} s -> {m.throughput_ops_s:.2f} txn/s"
        )
    table.note(
        f"2PC chaos: {summary['chaos_ok']}/{summary['chaos_cases']} "
        "cases pass the committed-visible/uncommitted-gone oracle; "
        "crash points " + ", ".join(
            f"{point}={count}"
            for point, count in sorted(summary["chaos_points"].items())
        )
    )
    return table


def check(
    query_runs: list[QueryRun],
    mix_runs: list[MixRun],
    chaos: list,
    summary: dict,
) -> list[str]:
    failures = []
    for r in query_runs:
        if not r.equivalent:
            failures.append(
                f"semantic mismatch: {r.label} at {r.n_shards} shards"
            )
    if summary["gate_speedup"] is None:
        failures.append(
            f"gate pair missing: {GATE_QUERY} needs both 1 and "
            f"{GATE_SHARDS} shard measurements"
        )
    elif summary["gate_speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"{GATE_QUERY} speedup at {GATE_SHARDS} shards is "
            f"{summary['gate_speedup']:.2f}x < {SPEEDUP_FLOOR:.1f}x"
        )
    for c in chaos:
        if not c.ok:
            failures.append(
                f"2PC chaos case seed={c.seed} "
                f"({c.point} x{c.occurrence}): " + "; ".join(c.failures)
            )
    for point in TWOPC_CRASH_POINTS:
        if summary["chaos_points"].get(point, 0) == 0:
            failures.append(f"2PC crash point never exercised: {point}")
    for m in mix_runs:
        if m.n_shards == 1 and m.gave_up:
            failures.append(
                f"mix at 1 shard gave up on {m.gave_up} op(s)"
            )
    return failures


def test_sharding_scaling(save_table, save_json):
    query_runs, mix_runs, csv_rows, chaos = run_benchmark()
    summary = summarize(query_runs, mix_runs, chaos)
    table = build_table(query_runs, mix_runs, summary)
    save_table(
        "sharding_scaling", str(table) + "\n" + str(TWOPC.summarize(chaos))
    )
    save_table("sharding_scaling.csv", records_to_csv(ShardRow, csv_rows))
    save_json("sharding", {
        "benchmark": "sharding_scaling",
        "scale": SCALE,
        "scheme": SCHEME,
        "shard_counts": list(SHARD_COUNTS),
        "summary": summary,
        "queries": [asdict(r) for r in query_runs],
        "mixes": [asdict(m) for m in mix_runs],
    })
    failures = check(query_runs, mix_runs, chaos, summary)
    assert not failures, "\n".join(failures)
