"""The paper's unreached goal, run to completion.

Section 2: the project was to benchmark OQL evaluation, elicit a cost
model from the results by regression, and drive plan choice with it.
This benchmark does all three on the simulator:

1. fit per-event costs from the Figures 11-14 measurements by least
   squares and report the recovered coefficients;
2. score the cost-based optimizer against the measured winners of every
   (organization, selectivity) cell.
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_cost_model, score_optimizer
from repro.stats import Table


def test_cost_model_regression(figure_driver, save_table):
    runs = []
    for rel in ("1:1000", "1:3"):
        for org in ("class", "composition"):
            runs.extend(figure_driver.grid(rel, org))
    fit = fit_cost_model(runs)

    table = Table(
        f"Cost-model regression over {fit.n_runs} measured runs "
        f"(R^2 = {fit.r_squared:.4f})",
        ["Feature", "Fitted cost", "True (simulator)"],
    )
    table.add("disk page (ms)", fit.page_read_ms, "10.0 read + write-backs")
    table.add(
        "transfer page (ms)", fit.coefficients["transfer_pages"] * 1e3, "1.0"
    )
    table.add("rpc (ms)", fit.coefficients["rpcs"] * 1e3, "0.2")
    table.add("handle op (us)", fit.handle_us, "~62.5 (125 us get+unref pair)")
    table.add(
        "swap fault (ms)", fit.coefficients["swap_faults"] * 1e3, "40.0"
    )
    table.add("result element (us)", fit.result_us, "600")
    save_table("cost_model_regression", table)

    assert fit.r_squared > 0.95
    # Disk reads, transfers and RPCs are collinear in cold runs (every
    # client fault triggers one of each), so the solver may split their
    # combined cost arbitrarily — assert on the identified *sum*, which
    # should recover the true 10 + 1 + 0.2 ms per cold page.
    per_page_ms = (
        fit.page_read_ms
        + fit.coefficients["transfer_pages"] * 1e3
        + fit.coefficients["rpcs"] * 1e3
    )
    assert per_page_ms == pytest.approx(11.2, rel=0.25)
    assert 300 < fit.result_us < 900
    assert fit.coefficients["swap_faults"] * 1e3 == pytest.approx(40.0, rel=0.2)


def test_optimizer_choice_quality(figure_driver):
    verdicts = {}
    for rel in ("1:1000", "1:3"):
        for org in ("class", "composition"):
            derby = figure_driver.derby(rel, org)
            verdicts[(rel, org)] = score_optimizer(
                derby, figure_driver.grid(rel, org)
            )

    table = Table(
        "Optimizer validation: cost-based choice vs measured winner",
        ["Database", "Organization", "Cell", "Chosen", "Best", "Regret"],
    )
    for (rel, org), cells in sorted(verdicts.items()):
        for v in cells:
            table.add(
                rel, org, f"{v.sel_patients}/{v.sel_providers}",
                v.chosen, v.best, v.regret,
            )
    # Printed only: the persisted artifact for plan-choice quality is
    # results/optimizer_leaderboard.txt (benchmarks/bench_optimizer.py),
    # which validates plans semantically and gates on zero regressions.
    print("\n" + str(table))

    all_verdicts = [v for cells in verdicts.values() for v in cells]
    wins = sum(1 for v in all_verdicts if v.chosen == v.best)
    mean_regret = sum(v.regret for v in all_verdicts) / len(all_verdicts)
    # The optimizer must avoid catastrophes everywhere and pick the true
    # winner in a clear majority of the 16 cells.
    assert max(v.regret for v in all_verdicts) < 4.0
    assert wins >= len(all_verdicts) // 2
    assert mean_regret < 1.6
