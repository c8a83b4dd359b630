"""The benchmark harness: regenerate every table and figure of the paper.

One builder per figure (:mod:`repro.bench.figures`), an experiment runner
that executes cold queries and records each run in the Figure 3 stats
database (:mod:`repro.bench.runner`); the tables render through
:class:`repro.stats.Table`.
"""

from repro.bench.runner import ExperimentRunner, JoinMeasurement, SelectionMeasurement
from repro.bench.sweeps import (
    SweepPoint,
    find_crossover,
    memory_pressure_sweep,
)
from repro.bench.workloads import (
    SELECTIVITY_GRID,
    figure6_selectivities,
    figure7_selectivities,
    tree_query_text,
)

__all__ = [
    "ExperimentRunner",
    "JoinMeasurement",
    "SelectionMeasurement",
    "SELECTIVITY_GRID",
    "figure6_selectivities",
    "figure7_selectivities",
    "tree_query_text",
    "SweepPoint",
    "find_crossover",
    "memory_pressure_sweep",
]
