"""Tests for the OQL front end: lexer, parser, optimizer, engine."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import load_derby
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError, PlanError
from repro.opt import StatsCollector
from repro.oql import (
    AnalyzeStmt,
    BinOp,
    BoolOp,
    Catalog,
    ExplainStmt,
    Literal,
    OQLEngine,
    Path,
    TupleExpr,
    parse,
    parse_statement,
    tokenize,
)
from repro.oql.optimizer import Optimizer, SelectionPlan, TreeJoinPlan
from repro.simtime import CostParams


def run_oql(catalog: Catalog, source: str) -> list[tuple]:
    """One statement on a fresh engine: parse, plan, execute."""
    return OQLEngine(catalog).execute(source)


# ------------------------------------------------------------- lexer

class TestLexer:
    def test_tokens(self):
        tokens = tokenize("select p.age from p in Patients where p.num > 5")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "kw", "ident", "op", "ident", "kw", "ident", "kw", "ident",
            "kw", "ident", "op", "ident", "op", "int", "eof",
        ]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT x FROM y IN Z")
        assert tokens[0].is_kw("select")
        assert tokens[2].is_kw("from")

    def test_two_char_ops(self):
        tokens = tokenize("a <= b >= c != d")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<=", ">=", "!="]

    def test_string_literals(self):
        tokens = tokenize("select x from x in C where x.name = 'Tintin'")
        assert any(t.kind == "string" and t.text == "Tintin" for t in tokens)

    def test_unterminated_string(self):
        with pytest.raises(OQLSyntaxError):
            tokenize("'oops")

    def test_junk_character(self):
        with pytest.raises(OQLSyntaxError):
            tokenize("select %")

    def test_underscored_numbers(self):
        tokens = tokenize("1_800_000")
        assert tokens[0].kind == "int"


# ------------------------------------------------------------- parser

class TestParser:
    def test_simple_selection(self):
        q = parse("select p.age from p in Patients where p.num > 5")
        assert q.select == Path("p", ("age",))
        assert q.from_clauses[0].var == "p"
        assert q.where == BinOp(">", Path("p", ("num",)), Literal(5))

    def test_tree_query(self):
        q = parse(
            "select tuple(n: p.name, a: pa.age) "
            "from p in Providers, pa in p.clients "
            "where pa.mrn < 100 and p.upin < 10"
        )
        assert isinstance(q.select, TupleExpr)
        assert q.select.fields[0] == ("n", Path("p", ("name",)))
        assert len(q.from_clauses) == 2
        assert q.from_clauses[1].source == Path("p", ("clients",))
        assert isinstance(q.where, BoolOp)
        assert q.where.op == "and"

    def test_list_projection_autonames(self):
        q = parse("select [p.name, pa.age] from p in P, pa in p.cs")
        assert isinstance(q.select, TupleExpr)
        assert [f[0] for f in q.select.fields] == ["col0", "col1"]

    def test_distinct(self):
        q = parse("select distinct p.age from p in Patients")
        assert q.distinct

    def test_parentheses_and_or(self):
        q = parse("select p.a from p in C where (p.x < 1 or p.y > 2) and p.z = 3")
        assert isinstance(q.where, BoolOp) and q.where.op == "and"
        assert isinstance(q.where.operands[0], BoolOp)
        assert q.where.operands[0].op == "or"

    def test_not(self):
        q = parse("select p.a from p in C where not p.x < 1")
        assert isinstance(q.where, BoolOp) and q.where.op == "not"

    def test_missing_from(self):
        with pytest.raises(OQLSyntaxError):
            parse("select p.age where p.num > 5")

    def test_trailing_garbage(self):
        with pytest.raises(OQLSyntaxError):
            parse("select p.a from p in C extra")

    def test_float_literal(self):
        q = parse("select p.a from p in C where p.x < 1.5")
        assert q.where.right == Literal(1.5)


# ------------------------------------------------------------- fixtures

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
def comp_derby():
    cfg = DerbyConfig(
        n_providers=40,
        n_patients=1200,
        clustering=Clustering.COMPOSITION,
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


# ------------------------------------------------------------- optimizer

class TestOptimizer:
    def test_selection_uses_sorted_index(self, derby, catalog):
        """Section 4.2's discovery: the *sorted* unclustered index scan
        is the plan of choice, and strictly beats the unsorted index
        scan at any selectivity."""
        engine = OQLEngine(catalog)
        k = derby.config.num_threshold(30)
        plan = engine.plan(f"select p.age from p in Patients where p.num > {k}")
        assert isinstance(plan, SelectionPlan)
        assert plan.index is not None
        assert plan.sorted_rids
        assert plan.alternatives["sorted-index"].seconds < (
            plan.alternatives["scan"].seconds
        )
        assert plan.alternatives["sorted-index"].seconds < (
            plan.alternatives["index"].seconds
        )

    def test_selection_without_index_scans(self, catalog):
        engine = OQLEngine(catalog)
        plan = engine.plan("select p.name from p in Patients where p.age < 30")
        assert isinstance(plan, SelectionPlan)
        assert plan.index is None

    def test_tree_plan_costs_all_four(self, derby, catalog):
        engine = OQLEngine(catalog)
        k1 = derby.config.mrn_threshold(10)
        k2 = derby.config.upin_threshold(10)
        plan = engine.plan(
            f"select tuple(n: p.name, a: pa.age) from p in Providers, "
            f"pa in p.clients where pa.mrn < {k1} and p.upin < {k2}"
        )
        assert isinstance(plan, TreeJoinPlan)
        assert set(plan.alternatives) == {"NL", "NOJOIN", "PHJ", "CHJ"}
        assert plan.algorithm in plan.alternatives

    def test_composition_prefers_navigation(self, comp_derby):
        """Figure 13: with composition clustering navigation wins."""
        catalog = Catalog.from_derby(comp_derby)
        engine = OQLEngine(catalog)
        k1 = comp_derby.config.mrn_threshold(10)
        k2 = comp_derby.config.upin_threshold(10)
        plan = engine.plan(
            f"select tuple(n: p.name, a: pa.age) from p in Providers, "
            f"pa in p.clients where pa.mrn < {k1} and p.upin < {k2}"
        )
        assert plan.algorithm in ("NL", "NOJOIN")

    def test_three_variables_rejected(self, catalog):
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                "select a.x from a in A, b in a.bs, c in b.cs"
            )

    def test_unknown_collection_rejected(self, catalog):
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan("select p.age from p in Ghosts")

    def test_tree_join_needs_both_predicates(self, catalog):
        with pytest.raises(PlanError):
            OQLEngine(catalog).plan(
                "select tuple(n: p.name, a: pa.age) from p in Providers, "
                "pa in p.clients where pa.mrn < 10"
            )


# ------------------------------------------------------------- engine

class TestEngine:
    def test_selection_matches_reference(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.num_threshold(20)
        rows = run_oql(
            catalog, f"select p.age from p in Patients where p.num > {k}"
        )
        expected = sorted(p.age for p in logical.patients if p.num > k)
        assert sorted(rows) == expected

    def test_selection_with_residual_predicate(self, derby, catalog, logical):
        derby.start_cold_run()
        k = derby.config.num_threshold(50)
        rows = run_oql(
            catalog,
            f"select p.age from p in Patients "
            f"where p.num > {k} and p.age < 40",
        )
        expected = sorted(
            p.age for p in logical.patients if p.num > k and p.age < 40
        )
        assert sorted(rows) == expected

    def test_full_scan_when_no_index(self, derby, catalog, logical):
        derby.start_cold_run()
        rows = run_oql(
            catalog, "select p.name from p in Patients where p.age >= 99"
        )
        expected = sorted(p.name for p in logical.patients if p.age >= 99)
        assert sorted(rows) == expected

    def test_multi_attribute_projection(self, derby, catalog, logical):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select tuple(n: p.name, a: p.age) from p in Patients "
            "where p.mrn <= 5",
        )
        expected = sorted(
            (p.name, p.age) for p in logical.patients if p.mrn <= 5
        )
        assert sorted(rows) == expected

    def test_tree_join_matches_reference(self, derby, catalog, logical):
        derby.start_cold_run()
        k1 = derby.config.mrn_threshold(30)
        k2 = derby.config.upin_threshold(50)
        rows = run_oql(
            catalog,
            f"select tuple(n: p.name, a: pa.age) from p in Providers, "
            f"pa in p.clients where pa.mrn < {k1} and p.upin < {k2}",
        )
        expected = sorted(
            (prov.name, logical.patients[j].age)
            for prov in logical.providers
            if prov.upin < k2
            for j in prov.patient_idxs
            if logical.patients[j].mrn < k1
        )
        assert sorted(rows) == expected

    def test_tree_join_child_first_projection(self, derby, catalog):
        derby.start_cold_run()
        k1 = derby.config.mrn_threshold(10)
        k2 = derby.config.upin_threshold(100)
        rows = run_oql(
            catalog,
            f"select tuple(a: pa.age, n: p.name) from p in Providers, "
            f"pa in p.clients where pa.mrn < {k1} and p.upin < {k2}",
        )
        assert all(isinstance(age, int) for age, __ in rows)

    def test_distinct(self, derby, catalog):
        derby.start_cold_run()
        rows = run_oql(
            catalog, "select distinct p.sex from p in Patients where p.mrn < 500"
        )
        assert sorted(rows) == ["F", "M"]

    def test_string_equality(self, derby, catalog, logical):
        derby.start_cold_run()
        name = logical.patients[0].name
        rows = run_oql(
            catalog,
            f"select p.mrn from p in Patients where p.name = '{name}'",
        )
        assert 1 in rows

    def test_execution_charges_simulated_time(self, derby, catalog):
        derby.start_cold_run()
        run_oql(catalog, "select p.age from p in Patients where p.mrn < 100")
        assert derby.db.clock.elapsed_s > 0


# ------------------------------------------------------- statement cache

class TestStatementCache:
    """``parse_statement`` and ``parse`` keep one tree per statement
    text; nothing downstream may change a tree they hand out."""

    def test_a_text_parses_to_the_identical_object(self):
        text = "select p.age from p in Patients where p.mrn < 41"
        first = parse_statement(text)
        assert parse_statement(text) is first
        assert parse(text) is first
        assert parse_statement(f" {text}") is not first  # keyed on the text

    def test_a_syntax_error_raises_every_time_and_is_not_kept(self):
        text = "select p.age where p.num > 5"
        size = parse_statement.cache_info().currsize
        for __ in range(2):
            with pytest.raises(OQLSyntaxError):
                parse_statement(text)
            with pytest.raises(OQLSyntaxError):
                parse(text)
        assert parse_statement.cache_info().currsize == size

    @pytest.mark.parametrize("text", [
        "explain select p.age from p in Patients where p.mrn < 42",
        "analyze Patients, Providers",
        "analyze",
    ])
    def test_explain_and_analyze_are_kept_too(self, text):
        stmt = parse_statement(text)
        assert isinstance(stmt, (ExplainStmt, AnalyzeStmt))
        assert parse_statement(text) is stmt
        with pytest.raises(OQLSyntaxError, match="expected 'select'"):
            parse(text)  # not a query, however often asked

    def test_the_bound_is_a_constant(self):
        assert parse_statement.cache_info().maxsize == 1024


@st.composite
def statements(draw):
    """A selection over Patients, or the Providers x clients tree join
    (whose predicates are one ``<`` per variable on an indexed key)."""
    if draw(st.booleans()):
        conjuncts = " and ".join(
            f"p.{attr} {draw(st.sampled_from(('<', '<=', '>', '>=', '=')))} "
            f"{draw(st.integers(min_value=-1, max_value=1300))}"
            for attr in draw(st.lists(st.sampled_from(("mrn", "num", "age")),
                                      min_size=1, max_size=2, unique=True))
        )
        head = draw(st.sampled_from(
            ("select p.age", "select count(p)", "select avg(p.age)",
             "select distinct p.sex")
        ))
        text = f"{head} from p in Patients where {conjuncts}"
        if head == "select p.age" and draw(st.booleans()):
            text += " order by p.age desc"
    else:
        text = (
            "select tuple(n: q.name, a: p.age) from q in Providers, "
            f"p in q.clients where p.mrn < {draw(st.integers(0, 1300))} "
            f"and q.upin < {draw(st.integers(0, 41))}"
        )
    if draw(st.booleans()):
        text += f" limit {draw(st.integers(min_value=1, max_value=9))}"
    return text


class TestSharedTreesStayUnchanged:
    @pytest.fixture(scope="class")
    def engines(self, catalog):
        cost = Optimizer(catalog, include_extensions=True)
        cost.install_stats(StatsCollector(catalog).collect())
        return OQLEngine(catalog), OQLEngine(catalog, optimizer=cost)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=statements())
    def test_planning_and_explaining_leave_the_tree_as_parsed(
        self, engines, text
    ):
        fresh = parse_statement.__wrapped__  # the parser, cache bypassed
        stmt = parse_statement(text)
        explained = parse_statement(f"explain {text}")
        for engine in engines:
            for use in (
                lambda: engine.execute(text),
                lambda: engine.execute(f"explain {text}"),
                lambda: engine.optimizer.plan(stmt),
            ):
                use()  # checked after each: two in-place changes could cancel
                assert parse_statement(text) is stmt
                assert stmt == fresh(text)
                assert explained == fresh(f"explain {text}")
