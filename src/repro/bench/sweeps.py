"""Parameter sweeps: continuous curves behind the paper's point tables.

The paper samples its design space at a handful of selectivities and one
memory configuration.  These sweeps trace the full curves and locate the
crossover points its prose talks about:

* :func:`find_crossover` — the selectivity where one algorithm overtakes
  another (e.g. Figure 6's "threshold situated between 1 and 5%");
* :func:`memory_pressure_sweep` — hash-join time vs query memory budget
  (where Figure 10's swap predictions bite).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.bench.runner import ExperimentRunner
from repro.errors import BenchError


@dataclass(frozen=True)
class SweepPoint:
    """One sample of a sweep curve."""

    x: float
    elapsed_s: float
    page_reads: int
    label: str


def find_crossover(
    runner: ExperimentRunner,
    method_a: str,
    method_b: str,
    low: float,
    high: float,
) -> float:
    """Bisect the selectivity (percent) where selection ``method_a``
    stops beating ``method_b``, to within half a percent (at most 12
    steps).

    Requires ``a`` faster at ``low`` and slower at ``high`` (the Figure 6
    setup: the unclustered index wins at 0.1% and loses at 10%+).
    """
    def gap(sel: float) -> float:
        a = runner.run_selection(method_a, sel).elapsed_s
        b = runner.run_selection(method_b, sel).elapsed_s
        return a - b

    lo_gap, hi_gap = gap(low), gap(high)
    if lo_gap >= 0 or hi_gap <= 0:
        raise BenchError(
            f"no crossover bracketed in [{low}, {high}]%: "
            f"gaps {lo_gap:+.3f} / {hi_gap:+.3f} s"
        )
    for __ in range(12):
        if high - low <= 0.5:
            break
        mid = (low + high) / 2
        if gap(mid) < 0:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def memory_pressure_sweep(
    runner: ExperimentRunner,
    budget_fractions: Sequence[float],
    algo: str = "PHJ",
) -> list[SweepPoint]:
    """Elapsed time of a hash join at 90/90 as the query memory budget
    shrinks.

    Temporarily replaces the database's memory model; restores it after.
    """
    derby = runner.derby
    db = derby.db
    original = db.params
    points = []
    try:
        for fraction in budget_fractions:
            memory = replace(
                original.memory,
                system_reserved_bytes=int(
                    original.memory.ram_bytes
                    - original.memory.server_cache_bytes
                    - original.memory.client_cache_bytes
                    - original.memory.query_memory_bytes * fraction
                ),
            )
            db.params = replace(original, memory=memory)
            m = runner.run_join(algo, 90, 90)
            points.append(
                SweepPoint(fraction, m.elapsed_s, m.meters.swap_faults, algo)
            )
    finally:
        db.params = original
    return points
