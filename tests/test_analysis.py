"""Tests for the analysis package: cost-model regression and optimizer
validation."""

from __future__ import annotations

import pytest

from repro.analysis import fit_cost_model, score_optimizer
from repro.analysis.regression import FEATURES, CostFit
from repro.bench import ExperimentRunner
from repro.bench.figures import PAPER_ALGORITHMS
from repro.bench.workloads import SELECTIVITY_GRID
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import BenchError
from repro.simtime import CostParams


def predict(fit: CostFit, run) -> float:
    """The fitted model's elapsed seconds for one run's observables."""
    return sum(
        fit.coefficients[name] * extract(run) for name, extract in FEATURES.items()
    )


@pytest.fixture(scope="module")
def derby():
    cfg = DerbyConfig(
        n_providers=40,
        n_patients=1200,
        clustering=Clustering.CLASS,
        scale=0.002,
        params=CostParams().scaled(0.002),
    )
    return load_derby(cfg)


@pytest.fixture(scope="module")
def grid_measurements(derby):
    runner = ExperimentRunner(derby)
    ms = runner.run_join_grid(PAPER_ALGORITHMS, SELECTIVITY_GRID)
    # Add selection runs for feature diversity.
    for method in ("scan", "index", "sorted-index"):
        for sel in (5, 30, 70):
            ms.append(runner.run_selection(method, sel))
    return ms


class TestRegression:
    def test_needs_enough_runs(self, grid_measurements):
        with pytest.raises(BenchError):
            fit_cost_model(grid_measurements[:2])

    def test_fit_quality(self, grid_measurements):
        fit = fit_cost_model(grid_measurements)
        assert fit.n_runs == len(grid_measurements)
        assert fit.r_squared > 0.95

    def test_recovers_page_cost(self, grid_measurements):
        """The fitted per-page coefficient should land near the true
        page_read + transfer + rpc cost (10 + 1 + 0.2 ms)."""
        fit = fit_cost_model(grid_measurements)
        assert 7.0 < fit.page_read_ms + fit.coefficients["rpcs"] * 1000 + (
            fit.coefficients["transfer_pages"] * 1000
        ) < 16.0

    def test_recovers_result_cost(self, grid_measurements):
        """Result construction is ~600 us/element in the simulator; the
        regression should see a same-order coefficient."""
        fit = fit_cost_model(grid_measurements)
        assert 200 < fit.result_us < 1200

    def test_nonnegative_coefficients(self, grid_measurements):
        fit = fit_cost_model(grid_measurements)
        assert all(c >= 0 for c in fit.coefficients.values())

    def test_prediction_close_on_training_data(self, grid_measurements):
        fit = fit_cost_model(grid_measurements)
        worst = max(
            abs(predict(fit, run) - run.elapsed_s)
            / max(run.elapsed_s, 1e-9)
            for run in grid_measurements
            if run.elapsed_s > 0.5  # ignore tiny runs
        )
        assert worst < 0.5

    def test_generalizes_to_unseen_cell(self, derby, grid_measurements):
        fit = fit_cost_model(grid_measurements)
        fresh = ExperimentRunner(derby).run_join("PHJ", 50, 50)
        assert predict(fit, fresh) == pytest.approx(
            fresh.elapsed_s, rel=0.35
        )

    def test_feature_set_is_stable(self):
        assert set(FEATURES) == {
            "disk_pages",
            "transfer_pages",
            "rpcs",
            "handle_ops",
            "swap_faults",
            "result_rows",
        }

    def test_costfit_is_plain_data(self, grid_measurements):
        fit = fit_cost_model(grid_measurements)
        assert isinstance(fit, CostFit)
        assert isinstance(fit.coefficients["disk_pages"], float)


class TestOptimizerValidation:
    def test_score_structure(self, derby, grid_measurements):
        joins = [m for m in grid_measurements if hasattr(m, "algo")]
        verdicts = score_optimizer(derby, joins)
        assert len(verdicts) == 4
        assert all(v.regret >= 1.0 for v in verdicts)

    def test_optimizer_is_never_catastrophic(self, derby, grid_measurements):
        """The whole point of a cost model: even when it misses the
        winner, the choice must not be NL-at-90/90-class bad."""
        joins = [m for m in grid_measurements if hasattr(m, "algo")]
        verdicts = score_optimizer(derby, joins)
        assert max(v.regret for v in verdicts) < 2.5

    def test_optimizer_mostly_right(self, derby, grid_measurements):
        joins = [m for m in grid_measurements if hasattr(m, "algo")]
        verdicts = score_optimizer(derby, joins)
        assert sum(v.regret for v in verdicts) / len(verdicts) < 1.5
