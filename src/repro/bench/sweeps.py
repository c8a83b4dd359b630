"""Parameter sweeps: continuous curves behind the paper's point tables.

The paper samples its design space at a handful of selectivities and one
memory configuration.  These sweeps trace the full curves and locate the
crossover points its prose talks about:

* :func:`selectivity_sweep` — elapsed time vs selectivity for chosen
  algorithms (the continuous version of Figures 11-14 rows);
* :func:`find_crossover` — the selectivity where one algorithm overtakes
  another (e.g. Figure 6's "threshold situated between 1 and 5%");
* :func:`cache_size_sweep` — elapsed time vs client-cache size (the
  Section 3.2 cache-sizing discussion, measured);
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


def selectivity_sweep(
    runner: ExperimentRunner,
    algorithms: Sequence[str],
    selectivities: Sequence[int],
) -> list[SweepPoint]:
    """Elapsed time vs patient selectivity at 10% of the providers, one
    curve per algorithm."""
    points = []
    for algo in algorithms:
        for sel in selectivities:
            m = runner.run_join(algo, sel, 10)
            points.append(
                SweepPoint(sel, m.elapsed_s, m.meters.disk_reads, algo)
            )
    return points


def selection_method_sweep(
    runner: ExperimentRunner,
    methods: Sequence[str],
    selectivities: Sequence[float],
) -> list[SweepPoint]:
    """Elapsed time vs selectivity for the Section 4 selection methods."""
    points = []
    for method in methods:
        for sel in selectivities:
            m = runner.run_selection(method, sel)
            points.append(SweepPoint(sel, m.elapsed_s, m.page_reads, method))
    return points


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


def cache_size_sweep(
    make_runner,
    client_cache_fractions: Sequence[float],
) -> list[SweepPoint]:
    """Elapsed time of NOJOIN at 90/10 vs client-cache size.

    ``make_runner(cache_fraction)`` must build (or rebuild) a runner
    whose memory model scales the client cache by the given fraction of
    its default — database layouts must be identical across points.
    """
    points = []
    for fraction in client_cache_fractions:
        runner = make_runner(fraction)
        m = runner.run_join("NOJOIN", 90, 10)
        points.append(
            SweepPoint(fraction, m.elapsed_s, m.meters.disk_reads, "NOJOIN")
        )
    return points


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
