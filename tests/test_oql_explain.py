"""Tests for the ``explain`` and ``analyze`` OQL statements.

Statements are first-class: they parse through ``parse_statement``,
unparse through ``print_statement``, execute through the ordinary
engine/cursor machinery, and run governed inside the multi-client
service.
"""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError, PlanError, ServiceError
from repro.oql import (
    AnalyzeStmt,
    Catalog,
    ExplainStmt,
    OQLEngine,
    Query,
    parse_statement,
    print_statement,
)
from repro.service import QueryService
from repro.simtime import CostParams


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


@pytest.fixture()
def engine(catalog):
    return OQLEngine(catalog)


SELECTION = "select p.age from p in Patients where p.num > 600"
TREE = (
    "select tuple(n: p.name, a: pa.age) "
    "from p in Providers, pa in p.clients "
    "where pa.mrn < 100000 and p.upin < 20"
)


class TestParsing:
    def test_plain_query_is_query(self):
        assert isinstance(parse_statement(SELECTION), Query)

    def test_explain(self):
        stmt = parse_statement(f"explain {SELECTION}")
        assert isinstance(stmt, ExplainStmt)
        assert isinstance(stmt.query, Query)

    def test_explain_case_insensitive(self):
        assert isinstance(parse_statement(f"EXPLAIN {SELECTION}"),
                          ExplainStmt)

    def test_analyze_bare(self):
        stmt = parse_statement("analyze")
        assert stmt == AnalyzeStmt(())

    def test_analyze_named(self):
        stmt = parse_statement("analyze Patients, Providers")
        assert stmt == AnalyzeStmt(("Patients", "Providers"))

    def test_analyze_trailing_garbage(self):
        with pytest.raises(OQLSyntaxError):
            parse_statement("analyze Patients bogus")

    def test_explain_requires_query(self):
        with pytest.raises(OQLSyntaxError):
            parse_statement("explain")

    def test_print_round_trip(self):
        for text in (f"explain {SELECTION}", "analyze",
                     "analyze Patients, Providers", SELECTION):
            stmt = parse_statement(text)
            printed = print_statement(stmt)
            assert parse_statement(printed) == stmt


class TestExplainExecution:
    def test_selection_report(self, engine):
        rows = engine.execute(f"explain {SELECTION}")
        assert all(isinstance(row, str) for row in rows)
        text = "\n".join(rows)
        assert rows[0].startswith("query:")
        assert "plan:" in text
        assert "rows: estimated" in text
        assert "cost: estimated" in text
        assert "alternatives:" in text
        assert "<- chosen" in text

    def test_tree_report_names_operator(self, engine):
        text = "\n".join(engine.execute(f"explain {TREE}"))
        assert "TreeJoin[" in text

    def test_actual_rows_reported(self, engine):
        n = len(engine.execute(SELECTION))
        text = "\n".join(engine.execute(f"explain {SELECTION}"))
        assert f"actual {n}" in text

    def test_charges_simulated_time(self, derby, engine):
        before = derby.db.clock.elapsed_s
        engine.execute(f"explain {SELECTION}")
        assert derby.db.clock.elapsed_s > before


#: The tree lines ``explain`` prints for each plan shape, byte for byte:
#: ``benchmarks/wallclock/expected.json`` digests ``explain`` rows, so no
#: operator label may drift.
PLAN_TREES = {
    "scan": (
        "select p.age from p in Patients where p.age > 60",
        ["Fetch(age) [filter: age > 60]",
         "  CollectionScan(Patients)"],
    ),
    "index": (
        "select p.age from p in Patients where p.mrn < 20",
        ["Fetch(age)",
         "  IndexScan(Patients.mrn < 20)"],
    ),
    "sorted-index": (
        SELECTION,
        ["Fetch(age)",
         "  IndexScan(Patients.num > 600, sorted rids)"],
    ),
    "index-only count": (
        "select count(p) from p in Patients where p.mrn < 300",
        ["IndexOnlyAggregate[count]",
         "  IndexScan(Patients.mrn < 300)"],
    ),
    "fetching aggregate, residual and exists": (
        "select count(p) from p in Providers where p.upin < 30 and "
        "p.name != 'x' and exists pa in p.clients : pa.age > 50",
        ["FetchingAggregate[count(*)] "
         "[filter: name != 'x' and exists clients: age > 50]",
         "  IndexScan(Providers.upin < 30)"],
    ),
    "two-key order by desc": (
        "select tuple(a: p.age, m: p.mrn) from p in Patients "
        "where p.mrn < 30 order by p.age desc, p.mrn desc",
        ["Sort(age desc, mrn desc)",
         "  Fetch(age, mrn)",
         "    IndexScan(Patients.mrn < 30)"],
    ),
    "distinct limit": (
        "select distinct p.sex from p in Patients where p.mrn < 400 limit 2",
        ["Limit(2)",
         "  Distinct",
         "    Fetch(sex)",
         "      IndexScan(Patients.mrn < 400)"],
    ),
    "tree join": (
        TREE,
        ["TreeJoin[PHJ](Providers.clients -> Patients)",
         "  parent: Providers.upin < 20 via index",
         "  child:  Patients.mrn < 100000 via index"],
    ),
    "tree join, child column first": (
        "select tuple(a: pa.age, n: p.name) "
        "from p in Providers, pa in p.clients "
        "where pa.mrn < 100000 and p.upin < 20",
        ["Map(flip columns)",
         "  TreeJoin[PHJ](Providers.clients -> Patients)",
         "    parent: Providers.upin < 20 via index",
         "    child:  Patients.mrn < 100000 via index"],
    ),
}


class TestExplainTree:
    """``explain`` prints the operator tree the statement ran."""

    @pytest.mark.parametrize("shape", PLAN_TREES)
    def test_tree_lines(self, engine, shape):
        query, tree = PLAN_TREES[shape]
        rows = engine.execute(f"explain {query}")
        end = next(i for i, row in enumerate(rows) if row.startswith("rows:"))
        assert rows[2:end] == ["  " + line for line in tree]


class TestAnalyzeExecution:
    def test_installs_stats_on_heuristic_engine(self, engine):
        assert engine.table_stats is None
        rows = engine.execute("analyze")
        assert engine.table_stats
        assert engine.table_stats.extent("Patients") is not None
        assert any("analyzed Patients" in row for row in rows)

    def test_installs_into_cost_planner(self, catalog):
        from repro.opt import CostBasedOptimizer

        optimizer = CostBasedOptimizer(catalog)
        engine = OQLEngine(catalog, optimizer=optimizer)
        engine.execute("analyze Patients")
        assert optimizer.table_stats.extent("Patients") is not None
        assert optimizer.table_stats.extent("Providers") is None

    def test_unknown_collection(self, engine):
        with pytest.raises(PlanError):
            engine.execute("analyze Bogus")


class TestGovernedStatements:
    def test_service_cost_optimizer(self, derby):
        service = QueryService(derby, optimizer="cost")
        session = service.open_session("s")
        with service.immediate(session):
            session.execute("analyze")
        assert service.plan_optimizer.table_stats
        with service.immediate(session):
            rows = session.execute(f"explain {SELECTION}")
        assert any("<- chosen" in row for row in rows)

    def test_sessions_share_planner(self, derby):
        service = QueryService(derby, optimizer="cost")
        one = service.open_session("one")
        two = service.open_session("two")
        with service.immediate(one):
            one.execute("analyze")
        assert two.engine.optimizer is service.plan_optimizer
        assert two.engine.optimizer.table_stats

    def test_invalid_optimizer_rejected(self, derby):
        with pytest.raises(ServiceError):
            QueryService(derby, optimizer="bogus")
