"""Parameter sweeps around the paper's point measurements.

* Locates Figure 6's index-vs-scan crossover selectivity by bisection —
  the paper brackets it "between 1 and 5%".
* Traces hash-join time against the query-memory budget — the
  continuous version of Figure 10's swap predictions.
"""

from __future__ import annotations

from repro.stats import Table
from repro.bench.sweeps import find_crossover, memory_pressure_sweep


def test_figure6_crossover(figure_driver, save_table):
    runner = figure_driver.runner("1:1000", "class")
    crossover = find_crossover(runner, "index", "scan", 0.2, 20.0)
    table = Table(
        "Figure 6 crossover — where the unclustered index stops winning",
        ["Quantity", "Value"],
    )
    table.add("crossover selectivity (%)", crossover)
    table.note('Paper: "a threshold selectivity situated between 1 and 5%".')
    save_table("sweep_fig6_crossover", table)

    assert 0.5 < crossover < 6.0


def test_memory_pressure_curve(figure_driver, save_table):
    runner = figure_driver.runner("1:3", "class")
    fractions = (1.0, 0.5, 0.2, 0.1, 0.02)
    points = memory_pressure_sweep(runner, fractions, algo="PHJ")
    table = Table(
        "PHJ at 90/90 vs query memory budget (1:3, class clustering)",
        ["Budget fraction", "Elapsed (sec)", "Swap faults"],
    )
    for p in points:
        table.add(p.x, p.elapsed_s, p.page_reads)
    save_table("sweep_memory_pressure", table)

    times = {p.x: p.elapsed_s for p in points}
    # Monotone: less memory can only hurt, and deep pressure hurts a lot.
    assert times[0.02] > times[1.0]
    assert times[0.1] >= times[0.5] >= times[1.0] * 0.999
