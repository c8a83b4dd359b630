"""Tests for the OQL extensions: aggregates, index-only answering,
order by."""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError, PlanError
from repro.oql import Catalog, OQLEngine, parse
from repro.oql.ast_nodes import AggregateExpr, OrderBy, Path
from repro.simtime import CostParams


def run_oql(catalog: Catalog, source: str) -> list[tuple]:
    """One statement on a fresh engine: parse, plan, execute."""
    return OQLEngine(catalog).execute(source)


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


@pytest.fixture(scope="module")
def catalog(derby):
    return Catalog.from_derby(derby)


@pytest.fixture(scope="module")
def logical(derby):
    return generate(derby.config)


class TestAggregateParsing:
    def test_count_star(self):
        q = parse("select count(*) from p in Patients")
        assert q.select == AggregateExpr("count", None)

    def test_count_var(self):
        q = parse("select count(p) from p in Patients")
        assert q.select == AggregateExpr("count", Path("p"))

    def test_sum_attr(self):
        q = parse("select sum(p.age) from p in Patients")
        assert q.select == AggregateExpr("sum", Path("p", ("age",)))

    def test_aggregate_needs_attribute(self):
        with pytest.raises(OQLSyntaxError):
            parse("select avg(p) from p in Patients")

    def test_order_by_parsing(self):
        q = parse("select p.age from p in Patients order by p.age desc")
        assert q.order_by == (OrderBy(Path("p", ("age",)), True),)

    def test_order_by_multiple_terms(self):
        q = parse(
            "select p.age from p in Patients "
            "order by p.age, p.mrn desc"
        )
        assert len(q.order_by) == 2
        assert not q.order_by[0].descending
        assert q.order_by[1].descending


class TestAggregateExecution:
    def test_count_matches_reference(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.mrn_threshold(30)
        (n,) = run_oql(
            catalog, f"select count(p) from p in Patients where p.mrn < {k}"
        )
        assert n == sum(1 for mrn in logical.mrn if mrn < k)

    def test_count_is_index_only(self, derby, catalog):
        """Counting over an indexed predicate must never fetch a data
        page — only index leaves."""
        engine = OQLEngine(catalog)
        k = derby.config.mrn_threshold(50)
        plan = engine.plan(
            f"select count(p) from p in Patients where p.mrn < {k}"
        )
        assert plan.index_only
        derby.start_cold_run()
        engine.execute(
            f"select count(p) from p in Patients where p.mrn < {k}"
        )
        reads = derby.db.counters.disk_reads
        # Only leaf pages of the mrn index (3 leaves here), no data pages.
        assert reads <= derby.by_mrn.leaf_count + 1
        assert derby.db.handles.live_count == 0
        assert derby.db.counters.handles_allocated == 0

    def test_min_max_over_index_key(self, derby, catalog, logical):
        derby.start_cold_run()
        (lo,) = run_oql(
            catalog, "select min(p.mrn) from p in Patients where p.mrn < 100"
        )
        (hi,) = run_oql(
            catalog, "select max(p.mrn) from p in Patients where p.mrn < 100"
        )
        assert lo == 1
        assert hi == 99

    def test_sum_avg_over_non_key_attribute(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.mrn_threshold(20)
        (total,) = run_oql(
            catalog, f"select sum(p.age) from p in Patients where p.mrn < {k}"
        )
        (mean,) = run_oql(
            catalog, f"select avg(p.age) from p in Patients where p.mrn < {k}"
        )
        ages = [
            age for age, mrn in zip(logical.age, logical.mrn) if mrn < k
        ]
        assert total == sum(ages)
        assert mean == pytest.approx(sum(ages) / len(ages))

    def test_count_with_residual_predicate_fetches(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.mrn_threshold(40)
        (n,) = run_oql(
            catalog,
            f"select count(p) from p in Patients "
            f"where p.mrn < {k} and p.age < 50",
        )
        assert n == sum(
            1 for mrn, age in zip(logical.mrn, logical.age)
            if mrn < k and age < 50
        )

    def test_count_without_any_index_scans(self, derby, catalog, logical):
        derby.start_cold_run()
        (n,) = run_oql(
            catalog, "select count(p) from p in Patients where p.age >= 90"
        )
        assert n == sum(1 for age in logical.age if age >= 90)

    def test_avg_of_empty_selection_is_none(self, derby, catalog):
        derby.start_cold_run()
        (mean,) = run_oql(
            catalog,
            "select avg(p.age) from p in Patients where p.age < 0",
        )
        assert mean is None


class TestOrderBy:
    def test_ascending(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.mrn_threshold(10)
        rows = run_oql(
            catalog,
            f"select p.age from p in Patients where p.mrn < {k} "
            "order by p.age",
        )
        assert rows == sorted(rows)

    def test_descending(self, derby, catalog):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select p.age from p in Patients where p.mrn < 100 "
            "order by p.age desc",
        )
        assert rows == sorted(rows, reverse=True)

    def test_order_key_outside_projection(self, derby, catalog, logical):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select p.name from p in Patients where p.mrn < 50 "
            "order by p.mrn",
        )
        expected = [
            name for mrn, name in sorted(zip(logical.mrn, logical.patient_name))
            if mrn < 50
        ]
        assert rows == expected

    def test_multi_term_order(self, derby, catalog):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select tuple(s: p.sex, a: p.age) from p in Patients "
            "where p.mrn < 200 order by p.sex, p.age desc",
        )
        assert rows == sorted(rows, key=lambda r: (r[0], -r[1]))

    def test_multi_term_order_desc_major(self, derby, catalog):
        # The descending pass must not undo the minor key's order.
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select tuple(a: p.age, m: p.mrn) from p in Patients "
            "where p.mrn < 200 order by p.age desc, p.mrn",
        )
        assert len({r[0] for r in rows}) < len(rows)  # ties exist
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))

    def test_order_charges_sort_time(self, derby, catalog):
        from repro.simtime import Bucket

        derby.start_cold_run()
        run_oql(
            catalog,
            "select p.age from p in Patients where p.age >= 0 "
            "order by p.age",
        )
        assert derby.db.clock.buckets.get(Bucket.SORT, 0.0) > 0

    def test_order_by_rejected_on_tree_join(self, derby, catalog):
        k1 = derby.config.mrn_threshold(10)
        k2 = derby.config.upin_threshold(10)
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                f"select tuple(n: p.name, a: pa.age) from p in Providers, "
                f"pa in p.clients where pa.mrn < {k1} and p.upin < {k2} "
                "order by pa.age"
            )

    def test_aggregate_rejected_on_tree_join(self, derby, catalog):
        k1 = derby.config.mrn_threshold(10)
        k2 = derby.config.upin_threshold(10)
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                f"select count(pa) from p in Providers, pa in p.clients "
                f"where pa.mrn < {k1} and p.upin < {k2}"
            )

    def test_aggregate_with_order_by_rejected(self, derby, catalog):
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                "select count(p) from p in Patients where p.mrn < 5 "
                "order by p.mrn"
            )
