"""End-to-end integration tests across the whole stack.

These exercise the complete pipeline — generation, loading, indexing,
OQL planning and execution, algorithm equivalence, stats recording and
cost-model fitting — in one place, on one shared mid-size database per
clustering.
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_cost_model
from repro.bench import ExperimentRunner
from repro.bench.figures import PAPER_ALGORITHMS
from repro.cluster import load_derby
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.oql import Catalog, OQLEngine
from repro.simtime import CostParams
from repro.stats import StatsDatabase


SCALE = 0.002


def config_for(clustering: Clustering) -> DerbyConfig:
    return DerbyConfig(
        n_providers=50,
        n_patients=1500,
        clustering=clustering,
        scale=SCALE,
        params=CostParams().scaled(SCALE),
    )


@pytest.fixture(scope="module", params=list(Clustering), ids=lambda c: c.value)
def derby(request):
    return load_derby(config_for(request.param))


@pytest.fixture(scope="module")
def logical():
    # Logical content is clustering-independent.
    return generate(config_for(Clustering.CLASS))


class TestFullPipeline:
    def test_oql_equals_reference_for_every_clustering(self, derby, logical):
        engine = OQLEngine(Catalog.from_derby(derby))
        k1 = derby.config.mrn_threshold(25)
        k2 = derby.config.upin_threshold(60)
        derby.start_cold_run()
        rows = engine.execute(
            "select tuple(n: p.name, a: pa.age) "
            "from p in Providers, pa in p.clients "
            f"where pa.mrn < {k1} and p.upin < {k2}"
        )
        expected = sorted(
            (logical.provider_name[i], logical.age[j])
            for i in range(logical.n_providers)
            if logical.upin[i] < k2
            for j in logical.patients_of(i)
            if logical.mrn[j] < k1
        )
        assert sorted(rows) == expected

    def test_all_algorithms_equal_under_every_clustering(self, derby):
        runner = ExperimentRunner(derby)
        reference = None
        for algo in PAPER_ALGORITHMS:
            m = runner.run_join(algo, 30, 70)
            if reference is None:
                reference = m.rows
            assert m.rows == reference, algo

    def test_selection_results_identical_across_access_paths(
        self, derby, logical
    ):
        runner = ExperimentRunner(derby)
        k = derby.config.num_threshold(40)
        expected = sorted(
            age for age, num in zip(logical.age, logical.num) if num > k
        )
        for method in ("scan", "index", "sorted-index"):
            m = runner.run_selection(method, 40)
            assert m.rows == len(expected), method

    def test_two_loads_are_deterministic(self, derby):
        other = load_derby(derby.config)
        a = ExperimentRunner(derby).run_join("PHJ", 10, 90)
        b = ExperimentRunner(other).run_join("PHJ", 10, 90)
        assert a.elapsed_s == pytest.approx(b.elapsed_s)
        assert a.meters.disk_reads == b.meters.disk_reads
        assert a.rows == b.rows

    def test_stats_and_analysis_round_trip(self, derby):
        stats = StatsDatabase()
        runner = ExperimentRunner(derby, stats)
        runs = []
        for sel in ((10, 10), (90, 90), (30, 70)):
            for algo in PAPER_ALGORITHMS:
                runs.append(runner.run_join(algo, *sel))
        assert len(stats) == len(runs)
        fit = fit_cost_model(runs)
        assert fit.r_squared > 0.9
        best = stats.best_algorithm(derby.config.clustering.value, 10, 10)
        assert best is not None
        assert best.algo in PAPER_ALGORITHMS
