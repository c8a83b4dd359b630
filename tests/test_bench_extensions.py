"""Tests for the bench extensions: warm runs, cost breakdowns, the
remote-workstation configuration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import ExperimentRunner
from repro.bench.figures import join_cost_breakdown, warm_vs_cold_figure
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.simtime import Bucket, CostParams


def remote_workstation(params: CostParams) -> CostParams:
    """Client and server on *different* machines (Figure 3's
    ``sameworkstation = false``): RPCs cross a LAN instead of a local
    socket, so per-round-trip overhead and page transfer both grow by an
    order of magnitude.  Disk and CPU are unchanged."""
    return replace(
        params,
        rpc_overhead_ms=params.rpc_overhead_ms * 10,
        page_transfer_ms=params.page_transfer_ms * 10,
    )


@pytest.fixture(scope="module")
def derby():
    cfg = DerbyConfig(
        n_providers=30,
        n_patients=900,
        clustering=Clustering.CLASS,
        scale=0.002,
        params=CostParams().scaled(0.002),
    )
    return load_derby(cfg)


@pytest.fixture()
def runner(derby):
    return ExperimentRunner(derby)


class TestWarmRuns:
    def test_warm_is_much_faster(self, runner):
        cold = runner.run_join("NOJOIN", 10, 90, cold=True)
        warm = runner.run_join("NOJOIN", 10, 90, cold=False)
        # On this tiny database result construction dominates; the warm
        # run still drops all I/O and most handle allocation.
        assert warm.elapsed_s < 0.7 * cold.elapsed_s
        assert warm.meters.disk_reads == 0  # everything cached

    def test_warm_still_pays_cpu_and_results(self, runner):
        runner.run_join("PHJ", 10, 10, cold=True)
        warm = runner.run_join("PHJ", 10, 10, cold=False)
        assert warm.elapsed_s > 0
        assert warm.breakdown.get("result", 0) > 0

    def test_warm_reuses_parked_handles(self, runner):
        runner.run_join("NOJOIN", 10, 10, cold=True)
        warm = runner.run_join("NOJOIN", 10, 10, cold=False)
        # Far fewer fresh allocations than the cold run's object count.
        assert warm.meters.handles_allocated < warm.meters.handles_unreferenced

    def test_warm_vs_cold_figure(self, runner):
        table = warm_vs_cold_figure(runner)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row[1] > row[2]   # cold slower than warm
            assert row[3] > 1.0


class TestJoinBreakdown:
    def test_components_sum_to_total(self, runner):
        table = join_cost_breakdown(runner, 10, 90)
        for row in table.rows:
            assert sum(row[1:-1]) == pytest.approx(row[-1], rel=0.01)

    def test_nl_breakdown_is_io_heavy(self, runner):
        table = join_cost_breakdown(runner, 90, 90)
        by_algo = {row[0]: row for row in table.rows}
        headers = table.headers
        io_col = headers.index("io")
        nl = by_algo["NL"]
        assert nl[io_col] > 0.3 * nl[-1]


class TestRemoteWorkstation:
    def test_remote_params(self):
        local = CostParams()
        remote = remote_workstation(local)
        assert remote.rpc_overhead_ms == 10 * local.rpc_overhead_ms
        assert remote.page_transfer_ms == 10 * local.page_transfer_ms
        assert remote.page_read_ms == local.page_read_ms

    def test_remote_queries_slower_same_winner(self):
        def best(params: CostParams):
            cfg = DerbyConfig(
                n_providers=30,
                n_patients=900,
                clustering=Clustering.CLASS,
                scale=0.002,
                params=params,
            )
            runner = ExperimentRunner(load_derby(cfg))
            times = {
                algo: runner.run_join(algo, 10, 10).elapsed_s
                for algo in ("NL", "NOJOIN", "PHJ")
            }
            return times

        local = best(CostParams().scaled(0.002))
        remote = best(remote_workstation(CostParams().scaled(0.002)))
        assert min(remote, key=remote.get) == min(local, key=local.get)
        for algo in local:
            assert remote[algo] > local[algo]
