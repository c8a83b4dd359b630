"""Tests for the optimizer statistics subsystem (``repro.opt``).

Covers the equi-depth histogram (accuracy, bounds, edge cases), the
ANALYZE collector (contents, determinism, simulated-time charging,
sampling), persistence through the self-hosted stats database, and the
cardinality estimator's selectivity guarantees.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.opt import (
    CardinalityEstimator,
    EquiDepthHistogram,
    StatsCollector,
    TableStats,
    load_table_stats,
    save_table_stats,
    selectivity_error_bound,
    summarize,
)
from repro.oql import Catalog
from repro.oql.optimizer import SargablePredicate
from repro.simtime import CostParams
from repro.stats import StatsDatabase


@pytest.fixture(scope="module")
def derby():
    config = DerbyConfig(
        n_providers=40,
        n_patients=1200,
        clustering=Clustering.CLASS,
        scale=0.002,
        params=CostParams().scaled(0.002),
    )
    return load_derby(config)


@pytest.fixture(scope="module")
def catalog(derby):
    return Catalog.from_derby(derby)


@pytest.fixture(scope="module")
def table_stats(catalog):
    return StatsCollector(catalog).collect()


class TestHistogram:
    def test_uniform_range_fractions(self):
        values = [float(v) for v in range(10_000)]
        hist = EquiDepthHistogram.build(values, buckets=40)
        bound = selectivity_error_bound(40)
        for frac in (0.1, 0.3, 0.5, 0.9):
            est = hist.fraction_le(frac * 10_000)
            assert abs(est - frac) <= bound

    def test_skewed_values_still_bounded(self):
        # Heavy skew: half the mass on one value, a long uniform tail.
        rng = random.Random(7)
        values = [5.0] * 5000 + [rng.uniform(0, 1000) for _ in range(5000)]
        hist = EquiDepthHistogram.build(values, buckets=40)
        bound = selectivity_error_bound(40)
        true_le_5 = sum(1 for v in values if v <= 5.0) / len(values)
        assert abs(hist.fraction_le(5.0) - true_le_5) <= bound
        true_le_500 = sum(1 for v in values if v <= 500.0) / len(values)
        assert abs(hist.fraction_le(500.0) - true_le_500) <= bound

    def test_eq_fraction_is_inverse_distinct(self):
        values = [float(v % 25) for v in range(1000)]
        hist = EquiDepthHistogram.build(values, buckets=10)
        assert hist.n_distinct == 25
        assert hist.eq_fraction() == pytest.approx(1.0 / 25)

    def test_bounds_clamp(self):
        hist = EquiDepthHistogram.build([float(v) for v in range(100)])
        assert hist.fraction_le(-1.0) == 0.0
        assert hist.fraction_le(1e9) == 1.0
        assert hist.selectivity(None, None) == pytest.approx(1.0)

    def test_empty(self):
        hist = EquiDepthHistogram.build([])
        assert hist.n == 0
        assert hist.fraction_le(3.0) == 0.0
        assert hist.selectivity(0.0, 10.0) == 0.0

    def test_selectivity_open_vs_closed(self):
        values = [float(v % 10) for v in range(1000)]
        hist = EquiDepthHistogram.build(values, buckets=10)
        closed = hist.selectivity(2.0, 5.0)
        open_low = hist.selectivity(2.0, 5.0, include_low=False)
        assert 0.0 <= open_low <= closed <= 1.0
        # Dropping the lower endpoint removes roughly one equality mass.
        assert closed - open_low == pytest.approx(hist.eq_fraction(), abs=0.05)

    def test_selectivity_never_escapes_unit_interval(self):
        rng = random.Random(11)
        values = [rng.gauss(0, 50) for _ in range(3000)]
        hist = EquiDepthHistogram.build(values, buckets=17)
        for _ in range(200):
            a, b = rng.uniform(-200, 200), rng.uniform(-200, 200)
            lo, hi = min(a, b), max(a, b)
            assert 0.0 <= hist.selectivity(lo, hi) <= 1.0


class TestCollector:
    def test_contents(self, catalog, table_stats):
        patients = table_stats.extent("Patients")
        providers = table_stats.extent("Providers")
        assert patients is not None and providers is not None
        assert patients.n_objects == catalog.collection_size("Patients")
        assert providers.n_objects == catalog.collection_size("Providers")
        assert patients.file_pages > 0
        for attr in ("mrn", "num", "age"):
            assert patients.attribute(attr) is not None

    def test_fanout(self, table_stats):
        fan = table_stats.fanout("Providers", "clients")
        assert fan is not None
        # 1200 patients over 40 providers.
        assert fan.avg_children == pytest.approx(30.0, rel=0.01)
        assert fan.max_children >= fan.avg_children
        assert fan.frac_with_children == pytest.approx(1.0)

    def test_deterministic(self, catalog, table_stats):
        again = StatsCollector(catalog).collect()
        assert again.extents == table_stats.extents
        assert again.fanouts == table_stats.fanouts

    def test_charges_simulated_time(self, derby, catalog):
        before = derby.db.clock.elapsed_s
        StatsCollector(catalog).collect(["Providers"])
        assert derby.db.clock.elapsed_s > before

    def test_sampling_caps_histogram(self, catalog):
        stats = StatsCollector(catalog, sample_limit=100).collect(["Patients"])
        extent = stats.extent("Patients")
        attr = extent.attribute("num")
        assert extent.sampled <= 100 < extent.n_objects
        # Distinct counts are scaled back to extent size, never beyond.
        assert attr.histogram.n_distinct <= extent.n_objects

    def test_unknown_collection_raises(self, catalog):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            StatsCollector(catalog).collect(["Bogus"])

    def test_summarize_lines(self, table_stats):
        lines = summarize(table_stats)
        assert any(line.startswith("analyzed Patients:") for line in lines)
        assert any("fan-out" in line for line in lines)


class TestPersist:
    def test_round_trip(self, table_stats):
        db = StatsDatabase()
        n_rows = save_table_stats(db, table_stats)
        assert n_rows > 0
        loaded = load_table_stats(db)
        assert loaded.extents == table_stats.extents
        assert loaded.fanouts == table_stats.fanouts

    def test_save_replaces(self, table_stats):
        db = StatsDatabase()
        save_table_stats(db, table_stats)
        save_table_stats(db, table_stats)
        loaded = load_table_stats(db)
        assert loaded.extents == table_stats.extents

    def test_the_last_save_wins_across_a_cold_restart(self, table_stats):
        from dataclasses import replace

        newer = TableStats(
            extents={name: replace(extent, n_objects=extent.n_objects + 1)
                     for name, extent in table_stats.extents.items()},
            fanouts={key: replace(fanout, max_children=fanout.max_children + 1)
                     for key, fanout in table_stats.fanouts.items()},
        )
        db = StatsDatabase()
        save_table_stats(db, table_stats)
        save_table_stats(db, newer)
        db.db.restart_cold()
        loaded = load_table_stats(db)
        assert loaded.extents == newer.extents
        assert loaded.fanouts == newer.fanouts


class TestEstimator:
    def test_selectivity_tracks_truth(self, derby, catalog, table_stats):
        est = CardinalityEstimator(catalog, table_stats)
        bound = selectivity_error_bound(40)
        for pct in (10, 30, 60, 90):
            threshold = derby.config.num_threshold(pct)
            pred = SargablePredicate("p", "num", ">", threshold)
            sel = est.selectivity("Patients", pred)
            assert abs(sel - pct / 100) <= bound + 0.02

    def test_conjunction_independence(self, catalog, table_stats):
        est = CardinalityEstimator(catalog, table_stats)
        p1 = SargablePredicate("p", "num", "<", 500_000)
        p2 = SargablePredicate("p", "age", "<", 40)
        combined = est.conjunct_selectivity("Patients", [p1, p2])
        product = est.selectivity("Patients", p1) * est.selectivity(
            "Patients", p2
        )
        assert combined == pytest.approx(product)

    def test_collection_rows(self, catalog, table_stats):
        est = CardinalityEstimator(catalog, table_stats)
        assert est.collection_rows("Patients") == catalog.collection_size(
            "Patients"
        )

    def test_fallback_without_stats(self, catalog):
        est = CardinalityEstimator(catalog)
        pred = SargablePredicate("p", "num", "<", 500_000)
        sel = est.selectivity("Patients", pred)
        assert 0.0 <= sel <= 1.0

    def test_install(self, catalog, table_stats):
        est = CardinalityEstimator(catalog)
        est.install(table_stats)
        assert est.stats is table_stats
