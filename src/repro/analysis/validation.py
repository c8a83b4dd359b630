"""Optimizer validation: does the cost model pick the right algorithm?

For every experimental cell, compare the algorithm the cost-based
optimizer *would* choose against the measured winner, and quantify the
regret (chosen time / best time).  A perfect optimizer scores regret 1.0
everywhere; the paper's heuristic optimizer — improved one customer
complaint at a time — was exactly what this harness is meant to replace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.figures import cell_times
from repro.bench.runner import JoinMeasurement
from repro.bench.workloads import SELECTIVITY_GRID
from repro.cluster.loader import DerbyDatabase
from repro.oql import Catalog, OQLEngine
from repro.bench.workloads import tree_query_text


@dataclass(frozen=True)
class CellVerdict:
    """One selectivity cell's outcome."""

    sel_patients: int
    sel_providers: int
    chosen: str
    best: str
    regret: float           # chosen elapsed / best elapsed (>= 1.0)
    estimated_s: float      # optimizer's estimate for its choice
    measured_s: float       # what its choice actually took


@dataclass(frozen=True)
class OptimizerScore:
    """Aggregate verdict across a grid."""

    verdicts: list[CellVerdict]

    @property
    def mean_regret(self) -> float:
        return sum(v.regret for v in self.verdicts) / len(self.verdicts)

    @property
    def max_regret(self) -> float:
        return max(v.regret for v in self.verdicts)

    @property
    def wins(self) -> int:
        """Cells where the optimizer picked the measured winner."""
        return sum(1 for v in self.verdicts if v.chosen == v.best)


def score_optimizer(
    derby: DerbyDatabase, measurements: list[JoinMeasurement]
) -> OptimizerScore:
    """Score the cost-based plan choice against measured grid results.

    ``measurements`` must cover every cell of ``SELECTIVITY_GRID`` for
    the paper's four algorithms (as produced by
    :meth:`~repro.bench.runner.ExperimentRunner.run_join_grid`).
    """
    engine = OQLEngine(Catalog.from_derby(derby))
    verdicts = []
    for sel_pat, sel_prov in SELECTIVITY_GRID:
        plan = engine.plan(tree_query_text(derby.config, sel_pat, sel_prov))
        times = cell_times(measurements, sel_pat, sel_prov)
        best = min(times, key=times.get)
        chosen = plan.algorithm
        verdicts.append(
            CellVerdict(
                sel_patients=sel_pat,
                sel_providers=sel_prov,
                chosen=chosen,
                best=best,
                regret=times[chosen] / times[best],
                estimated_s=plan.estimate.seconds,
                measured_s=times[chosen],
            )
        )
    return OptimizerScore(verdicts)
