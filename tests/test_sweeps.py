"""Tests for the parameter-sweep tooling."""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import pytest

from repro.bench import ExperimentRunner
from repro.bench.sweeps import SweepPoint, find_crossover, memory_pressure_sweep
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import BenchError
from repro.simtime import CostParams


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


@pytest.fixture(scope="module")
def derby():
    # The patients file (~40 pages) must exceed the scaled client cache
    # (~16 pages) so random index fetches actually pay re-reads.
    cfg = DerbyConfig(
        n_providers=30,
        n_patients=2400,
        clustering=Clustering.CLASS,
        scale=0.002,
        params=CostParams().scaled(0.002),
    )
    return load_derby(cfg)


@pytest.fixture()
def runner(derby):
    return ExperimentRunner(derby)


class TestSelectivitySweep:
    def test_curves_cover_grid(self, runner):
        points = selectivity_sweep(runner, ("PHJ", "NL"), (10, 50, 90))
        assert len(points) == 6
        assert {p.label for p in points} == {"PHJ", "NL"}

    def test_time_monotone_in_selectivity_for_phj(self, runner):
        points = selectivity_sweep(runner, ("PHJ",), (10, 30, 50, 70, 90))
        times = [p.elapsed_s for p in points]
        assert times == sorted(times)


class TestSelectionSweepAndCrossover:
    def test_scan_time_grows_only_through_results(self, runner):
        points = selection_method_sweep(runner, ("scan",), (1, 50, 99))
        reads = {p.page_reads for p in points}
        assert len(reads) == 1  # selectivity-independent I/O
        times = [p.elapsed_s for p in points]
        assert times == sorted(times)

    def test_figure6_crossover_between_1_and_10_percent(self, runner):
        """The unsorted unclustered index crosses the scan in the low
        single digits (the paper brackets it between 1 and 5%)."""
        crossover = find_crossover(runner, "index", "scan", 0.2, 20.0)
        assert 0.5 < crossover < 10.0

    def test_unbracketed_crossover_raises(self, runner):
        with pytest.raises(BenchError):
            # sorted-index beats the scan at both ends here: no crossing.
            find_crossover(runner, "sorted-index", "scan", 1.0, 30.0)


class TestCacheSweep:
    def test_smaller_cache_is_never_faster(self, derby):
        def make_runner(fraction: float) -> ExperimentRunner:
            memory = replace(
                derby.config.params.memory,
                client_cache_bytes=max(
                    4096,
                    int(derby.config.params.memory.client_cache_bytes * fraction),
                ),
            )
            derby.db.system.memory = memory
            derby.db.system.client_cache.capacity_pages = max(
                1, memory.client_cache_pages
            )
            return ExperimentRunner(derby)

        points = cache_size_sweep(make_runner, (0.1, 0.5, 1.0))
        times = [p.elapsed_s for p in points]
        assert times[0] >= times[-1]
        # Restore the full-size cache for other tests.
        make_runner(1.0)


class TestMemoryPressureSweep:
    def test_shrinking_budget_hurts_hash_joins(self, runner):
        points = memory_pressure_sweep(
            runner, (1.0, 0.05, 0.002), algo="PHJ"
        )
        assert points[0].elapsed_s <= points[-1].elapsed_s
        # With a tiny budget the join must have swapped.
        assert points[-1].page_reads > 0  # swap_faults recorded in field

    def test_budget_restored_after_sweep(self, runner, derby):
        before = derby.db.params.memory.query_memory_bytes
        memory_pressure_sweep(runner, (0.01,))
        assert derby.db.params.memory.query_memory_bytes == before
