"""Least-squares elicitation of the cost model from measured runs.

Each measured experiment exposes its elapsed simulated time, its event
counters (page reads, server-to-client transfers, RPCs, handle
operations, swap faults — the quantities the paper's Figure 3 ``Stat``
schema records) and its result cardinality.  Regressing elapsed time on
those observables recovers the per-event costs; on the simulator the
recovered coefficients can be checked against the true
:class:`~repro.simtime.params.CostParams`, which is the validation the
paper could never perform on O2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.errors import BenchError
from repro.simtime import MeterSnapshot


class MeasuredRun(Protocol):
    """What the regression needs from one experiment."""

    @property
    def elapsed_s(self) -> float: ...

    @property
    def meters(self) -> MeterSnapshot: ...

    @property
    def rows(self) -> int: ...


#: Feature name -> extractor over a measured run.
FEATURES: dict[str, Callable[[MeasuredRun], float]] = {
    "disk_pages": lambda r: r.meters.disk_reads + r.meters.disk_writes,
    "transfer_pages": lambda r: r.meters.server_to_client,
    "rpcs": lambda r: r.meters.rpcs,
    "handle_ops": lambda r: (
        r.meters.handles_allocated + r.meters.handles_unreferenced
    ),
    "swap_faults": lambda r: r.meters.swap_faults,
    "result_rows": lambda r: r.rows,
}


@dataclass(frozen=True)
class CostFit:
    """A fitted linear cost model: elapsed ~ sum(coef * feature)."""

    coefficients: dict[str, float]   # seconds per event
    r_squared: float
    n_runs: int

    @property
    def page_read_ms(self) -> float:
        """Fitted milliseconds per disk page (compare to the true
        ``CostParams.page_read_ms``)."""
        return self.coefficients["disk_pages"] * 1000.0

    @property
    def handle_us(self) -> float:
        """Fitted microseconds per handle operation (the true value is
        the get/unref pair split over two events)."""
        return self.coefficients["handle_ops"] * 1e6

    @property
    def result_us(self) -> float:
        """Fitted microseconds per result element (the true value is
        ``CostParams.result_append_txn_us``)."""
        return self.coefficients["result_rows"] * 1e6


def fit_cost_model(runs: Sequence[MeasuredRun]) -> CostFit:
    """Fit per-event costs from measured runs by least squares.

    Needs at least as many runs as features, and runs diverse enough to
    make the design matrix well-conditioned (mix selectivities,
    algorithms and organizations, as the paper planned to).

    The fit is projected: negative coefficients — physically
    meaningless — are clamped to zero and the remaining features refit.
    """
    if len(runs) < len(FEATURES):
        raise BenchError(
            f"need at least {len(FEATURES)} runs to fit "
            f"{len(FEATURES)} coefficients, got {len(runs)}"
        )
    names = list(FEATURES)
    design = np.array(
        [[FEATURES[name](run) for name in names] for run in runs],
        dtype=float,
    )
    target = np.array([run.elapsed_s for run in runs], dtype=float)

    active = list(range(len(names)))
    coef = np.zeros(len(names))
    while active:
        sub = design[:, active]
        solution, *_rest = np.linalg.lstsq(sub, target, rcond=None)
        if (solution >= 0).all():
            for idx, value in zip(active, solution):
                coef[idx] = value
            break
        # Drop the most negative coefficient and refit without it.
        del active[int(np.argmin(solution))]

    predicted = design @ coef
    residual = target - predicted
    centered = target - target.mean() if len(runs) > 1 else target
    denom = float(centered @ centered)
    r_squared = 1.0 - float(residual @ residual) / denom if denom else 1.0

    return CostFit(
        coefficients={name: float(c) for name, c in zip(names, coef)},
        r_squared=r_squared,
        n_runs=len(runs),
    )
