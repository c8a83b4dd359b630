"""Tests for the OQL ``exists`` quantifier (navigational semijoin)."""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError, PlanError
from repro.oql import Catalog, OQLEngine, parse
from repro.oql.ast_nodes import ExistsExpr, Path
from repro.simtime import CostParams


def run_oql(catalog: Catalog, source: str) -> list[tuple]:
    """One statement on a fresh engine: parse, plan, execute."""
    return OQLEngine(catalog).execute(source)


@pytest.fixture(scope="module")
def derby():
    cfg = DerbyConfig(
        n_providers=25,
        n_patients=500,
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


class TestExistsParsing:
    def test_basic(self):
        q = parse(
            "select p.name from p in Providers "
            "where exists pa in p.clients : pa.mrn < 100"
        )
        assert isinstance(q.where, ExistsExpr)
        assert q.where.var == "pa"
        assert q.where.source == Path("p", ("clients",))

    def test_conjoined_with_plain_predicate(self):
        q = parse(
            "select p.name from p in Providers "
            "where p.upin < 5 and exists pa in p.clients : pa.age > 90"
        )
        terms = q.where.operands
        assert any(isinstance(t, ExistsExpr) for t in terms)

    def test_requires_set_attribute(self):
        with pytest.raises(OQLSyntaxError):
            parse("select p.name from p in Providers "
                  "where exists pa in Patients : pa.mrn < 5")

    def test_requires_colon(self):
        with pytest.raises(OQLSyntaxError):
            parse("select p.name from p in Providers "
                  "where exists pa in p.clients pa.mrn < 5")


class TestExistsExecution:
    def test_matches_reference(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.mrn_threshold(5)
        rows = run_oql(
            catalog,
            "select p.name from p in Providers "
            f"where exists pa in p.clients : pa.mrn < {k}",
        )
        expected = sorted(
            prov.name
            for prov in logical.providers
            if any(logical.patients[j].mrn < k for j in prov.patient_idxs)
        )
        assert sorted(rows) == expected

    def test_combined_with_sargable_predicate(self, derby, catalog, logical):
        derby.start_cold_run()
        k2 = derby.config.upin_threshold(50)
        rows = run_oql(
            catalog,
            f"select p.name from p in Providers where p.upin < {k2} "
            "and exists pa in p.clients : pa.age > 95",
        )
        expected = sorted(
            prov.name
            for prov in logical.providers
            if prov.upin < k2
            and any(logical.patients[j].age > 95 for j in prov.patient_idxs)
        )
        assert sorted(rows) == expected

    def test_exists_nobody_matches(self, derby, catalog):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select p.name from p in Providers "
            "where exists pa in p.clients : pa.age > 1000",
        )
        assert rows == []

    def test_count_with_exists(self, derby, catalog, logical):
        derby.start_cold_run()
        (n,) = run_oql(
            catalog,
            "select count(p) from p in Providers "
            "where exists pa in p.clients : pa.age < 3",
        )
        expected = sum(
            1
            for prov in logical.providers
            if any(logical.patients[j].age < 3 for j in prov.patient_idxs)
        )
        assert n == expected

    def test_exists_charges_navigation(self, derby, catalog):
        derby.start_cold_run()
        run_oql(
            catalog,
            "select p.name from p in Providers "
            "where exists pa in p.clients : pa.age > 50",
        )
        assert derby.db.counters.handles_allocated > 25  # children visited

    def test_exists_over_wrong_variable_rejected(self, catalog):
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                "select p.name from p in Providers "
                "where exists pa in q.clients : pa.mrn < 5"
            )
