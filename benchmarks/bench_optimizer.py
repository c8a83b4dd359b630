"""Cost-based vs. heuristic planner: the zero-regression leaderboard.

The cost-based optimizer (``repro.opt``) must earn its keep the way the
paper demanded — against measured truth.  For every cell of the paper's
query matrix (the Figure 10-15 tree-join grid over both databases and
both clusterings, plus the Figure 7 selection sweep) this benchmark:

1. runs ``analyze`` through a cost-planner engine (the statistics are
   charged simulated time like any other statement);
2. plans the cell three ways — **unoptimized** (forced sequential scan
   / forced NL join), **heuristic** (the default planner) and **cost**
   (statistics-driven enumeration over every access path and all six
   join strategies);
3. executes each plan cold and validates the cost plan **semantically**
   against the others: same row count, same order-insensitive checksum;
4. scores estimation quality (estimated vs. actual rows and seconds,
   as smoothed q-errors) and performance (per-cell speedup over the
   heuristic plan, geometric mean across the matrix).

Hard gates — the test fails on any of them:

* every cell validates (100% semantic agreement);
* **zero plan regressions**: no cell where the cost plan is slower than
  the heuristic plan (identical choices tie at exactly 1.00x on the
  deterministic simulator);
* geometric-mean speedup >= 1.0x.

Outputs: ``BENCH_optimizer.json`` (repo root),
``results/optimizer_leaderboard.txt`` and
``results/optimizer_leaderboard.csv``.  Run with
``python -m pytest benchmarks/bench_optimizer.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

from repro.bench.report import Table
from repro.bench.workloads import (
    SELECTIVITY_GRID,
    figure7_selectivities,
    selection_query_text,
    tree_query_text,
)
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.opt import CostBasedOptimizer
from repro.oql import Catalog, OQLEngine
from repro.oql.explain import chosen_key
from repro.oql.optimizer import SelectionPlan, TreeJoinPlan
from repro.stats import records_to_csv

SCALE = 0.01

DATABASES = (
    ("1:1000", DerbyConfig.db_1to1000),
    ("1:3", DerbyConfig.db_1to3),
)
CLUSTERINGS = (
    ("class", Clustering.CLASS),
    ("composition", Clustering.COMPOSITION),
)


@dataclass
class Cell:
    """One leaderboard row; its fields minus ``query`` are the CSV
    columns."""

    family: str           # "selection" | "tree-join"
    database: str
    clustering: str
    label: str            # "30%" or "10/90"
    query: str
    heuristic_plan: str
    cost_plan: str
    est_rows: float
    actual_rows: int
    rows_qerror: float
    est_cost_s: float
    actual_cost_s: float
    cost_qerror: float
    heuristic_s: float
    cost_s: float
    speedup: float
    validated: bool


def _checksum(rows: list) -> str:
    """Order-insensitive row-set fingerprint."""
    digest = hashlib.sha256(
        "\n".join(sorted(repr(r) for r in rows)).encode()
    )
    return digest.hexdigest()[:16]


def _qerror(estimated: float, actual: float) -> float:
    """Smoothed q-error: max over/under-estimation factor, +1 on both
    sides so empty results stay finite."""
    e, a = estimated + 1.0, actual + 1.0
    return max(e / a, a / e)


def _run_cold(derby, engine: OQLEngine, plan) -> tuple[list, float]:
    derby.start_cold_run()
    clock = derby.db.clock
    start_s = clock.elapsed_s
    rows = engine.execute(plan)
    return rows, clock.elapsed_s - start_s


def _force_scan(plan: SelectionPlan) -> SelectionPlan:
    """The unoptimized baseline: full scan, every predicate residual."""
    preds = ((plan.predicate,) if plan.predicate else ()) + plan.residuals
    return replace(
        plan,
        predicate=None,
        residuals=preds,
        index=None,
        sorted_rids=False,
        index_only=False,
        estimate=plan.alternatives["scan"],
    )


def _force_nl(plan: TreeJoinPlan) -> TreeJoinPlan:
    """The unoptimized baseline: naive nested-loop descent."""
    return replace(plan, algorithm="NL", estimate=plan.alternatives["NL"])


def _measure_cell(
    derby,
    heuristic: OQLEngine,
    cost: OQLEngine,
    family: str,
    database: str,
    clustering: str,
    label: str,
    query: str,
) -> Cell:
    plan_h = heuristic.plan(query)
    plan_c = cost.plan(query)
    plan_u = (
        _force_scan(plan_h)
        if isinstance(plan_h, SelectionPlan)
        else _force_nl(plan_h)
    )

    rows_u, __s_u = _run_cold(derby, heuristic, plan_u)
    rows_h, s_h = _run_cold(derby, heuristic, plan_h)
    rows_c, s_c = _run_cold(derby, cost, plan_c)

    validated = (
        len(rows_c) == len(rows_h) == len(rows_u)
        and _checksum(rows_c) == _checksum(rows_h) == _checksum(rows_u)
    )
    return Cell(
        family=family,
        database=database,
        clustering=clustering,
        label=label,
        query=query,
        heuristic_plan=chosen_key(plan_h),
        cost_plan=chosen_key(plan_c),
        est_rows=plan_c.est_rows,
        actual_rows=len(rows_c),
        rows_qerror=_qerror(plan_c.est_rows, len(rows_c)),
        est_cost_s=plan_c.estimate.seconds,
        actual_cost_s=s_c,
        cost_qerror=_qerror(plan_c.estimate.seconds, s_c),
        heuristic_s=s_h,
        cost_s=s_c,
        speedup=s_h / s_c if s_c > 0 else 1.0,
        validated=validated,
    )


def run_leaderboard() -> tuple[list[Cell], dict[str, float]]:
    cells: list[Cell] = []
    analyze_s: dict[str, float] = {}
    for db_name, maker in DATABASES:
        for org_name, org in CLUSTERINGS:
            config = maker(scale=SCALE, clustering=org)
            derby = load_derby(config)
            catalog = Catalog.from_derby(derby)
            heuristic = OQLEngine(catalog)
            cost = OQLEngine(
                catalog,
                optimizer=CostBasedOptimizer(
                    catalog, include_extensions=True
                ),
            )
            # Feed the cost planner: ANALYZE, charged like any statement.
            derby.start_cold_run()
            start_s = derby.db.clock.elapsed_s
            cost.execute("analyze")
            analyze_s[f"{db_name}/{org_name}"] = (
                derby.db.clock.elapsed_s - start_s
            )

            for sel_pat, sel_prov in SELECTIVITY_GRID:
                cells.append(_measure_cell(
                    derby, heuristic, cost,
                    family="tree-join",
                    database=db_name,
                    clustering=org_name,
                    label=f"{sel_pat}/{sel_prov}",
                    query=tree_query_text(config, sel_pat, sel_prov),
                ))
            if org is Clustering.CLASS:
                for pct in figure7_selectivities():
                    cells.append(_measure_cell(
                        derby, heuristic, cost,
                        family="selection",
                        database=db_name,
                        clustering=org_name,
                        label=f"{pct}%",
                        query=selection_query_text(config, pct),
                    ))
    return cells, analyze_s


# -- scoring and reporting --------------------------------------------------

def summarize(cells: list[Cell]) -> dict:
    regressions = [c for c in cells if c.cost_s > c.heuristic_s]
    mismatches = [c for c in cells if not c.validated]
    product = 1.0
    for c in cells:
        product *= c.speedup
    geomean = product ** (1.0 / len(cells)) if cells else 1.0
    qerrors = sorted(c.rows_qerror for c in cells)
    return {
        "queries": len(cells),
        "validated": len(cells) - len(mismatches),
        "mismatches": len(mismatches),
        "regressions": len(regressions),
        "geomean_speedup": geomean,
        "plan_changes": sum(
            1 for c in cells if c.heuristic_plan != c.cost_plan
        ),
        "max_rows_qerror": qerrors[-1] if qerrors else 1.0,
        "median_rows_qerror": qerrors[len(qerrors) // 2] if qerrors else 1.0,
        "mean_cost_qerror": (
            sum(c.cost_qerror for c in cells) / len(cells) if cells else 1.0
        ),
    }


def build_table(cells: list[Cell], summary: dict,
                analyze_s: dict[str, float]) -> Table:
    table = Table(
        "Optimizer leaderboard: cost-based vs heuristic plans "
        "(cold, validated)",
        ["Family", "Database", "Org", "Cell", "Heuristic", "Cost plan",
         "Est rows", "Rows", "Heur s", "Cost s", "Speedup", "Valid"],
    )
    for c in cells:
        table.add(
            c.family, c.database, c.clustering, c.label,
            c.heuristic_plan, c.cost_plan,
            c.est_rows, c.actual_rows,
            c.heuristic_s, c.cost_s, c.speedup,
            "ok" if c.validated else "MISMATCH",
        )
    table.note(
        f"{summary['validated']}/{summary['queries']} validated "
        "(row count + order-insensitive checksum vs the unoptimized "
        "scan/NL plan)"
    )
    table.note(
        f"geometric-mean speedup {summary['geomean_speedup']:.3f}x, "
        f"{summary['regressions']} regression(s), "
        f"{summary['plan_changes']} plan change(s)"
    )
    table.note(
        f"row-estimate q-error: median {summary['median_rows_qerror']:.2f}, "
        f"max {summary['max_rows_qerror']:.2f}; "
        f"cost-estimate q-error mean {summary['mean_cost_qerror']:.2f}"
    )
    for key in sorted(analyze_s):
        table.note(f"analyze {key}: {analyze_s[key]:.3f} simulated s")
    return table


def check(cells: list[Cell], summary: dict) -> list[str]:
    failures = []
    for c in cells:
        if not c.validated:
            failures.append(
                f"semantic mismatch in {c.family} {c.database}/"
                f"{c.clustering} {c.label}"
            )
        if c.cost_s > c.heuristic_s:
            failures.append(
                f"plan regression in {c.family} {c.database}/"
                f"{c.clustering} {c.label}: cost {c.cost_s:.6f}s > "
                f"heuristic {c.heuristic_s:.6f}s "
                f"({c.cost_plan} vs {c.heuristic_plan})"
            )
    if summary["geomean_speedup"] < 1.0:
        failures.append(
            f"geometric-mean speedup {summary['geomean_speedup']:.4f} < 1.0"
        )
    return failures


def test_optimizer_leaderboard(save_table, save_json):
    cells, analyze_s = run_leaderboard()
    summary = summarize(cells)
    save_table("optimizer_leaderboard", build_table(cells, summary, analyze_s))
    save_table(
        "optimizer_leaderboard.csv",
        records_to_csv(Cell, cells, exclude=("query",)),
    )
    save_json("optimizer", {
        "benchmark": "optimizer_leaderboard",
        "scale": SCALE,
        "analyze_s": analyze_s,
        "summary": summary,
        "cells": [asdict(c) for c in cells],
    })
    failures = check(cells, summary)
    assert not failures, "\n".join(failures)
