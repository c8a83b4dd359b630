"""Tests for the OQL front end: lexer, parser, optimizer, engine."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import load_derby
from repro.cluster.churn import register_new_patients
from repro.cluster.strategies import file_names
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError, PlanError
from repro.index.btree import BTreeIndex
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
from repro.oql.parser import STATEMENT_CACHE_SIZE
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

    def test_tree_join_query(self):
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
        expected = sorted(
            age for age, num in zip(logical.age, logical.num) if num > k
        )
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
            age for age, num in zip(logical.age, logical.num)
            if num > k and age < 40
        )
        assert sorted(rows) == expected

    def test_full_scan_when_no_index(self, derby, catalog, logical):
        derby.start_cold_run()
        rows = run_oql(
            catalog, "select p.name from p in Patients where p.age >= 99"
        )
        expected = sorted(
            name for name, age in zip(logical.patient_name, logical.age)
            if age >= 99
        )
        assert sorted(rows) == expected

    def test_multi_attribute_projection(self, derby, catalog, logical):
        derby.start_cold_run()
        rows = run_oql(
            catalog,
            "select tuple(n: p.name, a: p.age) from p in Patients "
            "where p.mrn <= 5",
        )
        expected = sorted(
            (name, age)
            for name, age, mrn in zip(
                logical.patient_name, logical.age, logical.mrn
            )
            if mrn <= 5
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
            (logical.provider_name[i], logical.age[j])
            for i in range(logical.n_providers)
            if logical.upin[i] < k2
            for j in logical.patients_of(i)
            if logical.mrn[j] < k1
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
        name = logical.patient_name[0]
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


# ------------------------------------------------------------ plan cache

def _grow_by_churn(derby, catalog, optimizer):
    register_new_patients(derby, 40)


def _grow_the_extent(derby, catalog, optimizer):
    for rid in derby.patient_rids[:50]:
        derby.patients.append(rid)


def _grow_the_file(derby, catalog, optimizer):
    patient_file = derby.db.file(file_names(derby.config.clustering)[1])
    for __ in range(3):
        derby.db.disk.allocate_page(patient_file.file_id)


def _index_insert(derby, catalog, optimizer):
    for key in range(5):
        for rid in derby.patient_rids[:40]:
            derby.by_mrn.insert(key, rid)


def _bulk_build(derby, catalog, optimizer):
    derby.by_mrn.bulk_build(
        (2 * key, rid) for key, rid in enumerate(derby.patient_rids)
    )


def _analyze(derby, catalog, optimizer):
    OQLEngine(catalog, optimizer=optimizer).execute("analyze")


def _index_on(derby, name, pairs) -> BTreeIndex:
    index = BTreeIndex(name, 9, derby.db.create_file(f"__index_{name}__"))
    index.bulk_build(pairs)
    return index


def _register_a_new_index(derby, catalog, optimizer):
    get_attr = derby.db.manager.get_attr_at
    catalog.register_index("Patients", "age", _index_on(
        derby, "by_age", ((get_attr(rid, "age"), rid) for rid in derby.patient_rids)
    ))


def _replace_an_index(derby, catalog, optimizer):
    """A replacement that has seen as many mutations as the index it
    replaces: only its identity tells the two apart."""
    old = derby.by_mrn
    pairs = [(key, rid) for key, rid in old.range_scan() if key % 2]
    new = _index_on(derby, "odd_mrn", pairs)
    while new.mutations < old.mutations:
        new.bulk_build(pairs)
    catalog.register_index("Patients", "mrn", new)


class TestPlanCache:
    """``Optimizer.plan`` keeps each plan it returns, per parsed query and
    ``force``, and empties the map when anything the planner reads
    changes: the installed statistics, a collection's size or file
    pages, an index's entries, a registration."""

    TEXTS = (
        "select p.age from p in Patients where p.mrn < 30",
        "select tuple(n: q.name, a: p.age) from q in Providers, "
        "p in q.clients where p.mrn < 30 and q.upin < 20",
        "select p.name from p in Patients where p.age < 30",
    )

    def test_a_hit_returns_the_identical_plan(self, catalog):
        engine = OQLEngine(catalog)
        for text in self.TEXTS:
            plan = engine.plan(text)
            assert engine.plan(text) is plan
            assert engine.optimizer.plan(parse(text)) is plan
            with pytest.raises(FrozenInstanceError):
                plan.limit = 3

    @pytest.mark.parametrize("change", [
        _grow_by_churn, _grow_the_extent, _grow_the_file, _index_insert,
        _bulk_build, _analyze, _register_a_new_index, _replace_an_index,
    ], ids=lambda change: change.__name__.strip("_"))
    def test_a_change_the_planner_reads_re_plans(self, change):
        derby = load_derby(DerbyConfig.db_1to3(scale=0.0001))
        catalog = Catalog.from_derby(derby)
        optimizer = Optimizer(catalog, include_extensions=True)
        queries = [parse(text) for text in self.TEXTS]
        before = [optimizer.plan(query) for query in queries]
        assert [optimizer.plan(query) for query in queries] == before
        change(derby, catalog, optimizer)
        fresh = Optimizer(catalog, include_extensions=True)
        if optimizer.estimator.stats is not None:
            fresh.install_stats(optimizer.estimator.stats)
        expected = [fresh.plan(query) for query in queries]
        assert expected != before  # the change moved some plan
        assert [optimizer.plan(query) for query in queries] == expected

    def test_explain_prints_the_literal_of_its_own_text(self, catalog):
        engine = OQLEngine(catalog)
        texts = {
            literal: f"select p.age from p in Patients where p.mrn < {literal}"
            for literal in ("1", "1.0")
        }
        # The two trees compare and hash equal: only their identity
        # tells the two texts apart.
        assert parse(texts["1"]) == parse(texts["1.0"])
        for literal, text in texts.items():
            assert repr(engine.plan(text).predicate.value) == literal
            explained = "\n".join(engine.execute(f"explain {text}"))
            assert f"IndexScan(Patients.mrn < {literal})" in explained

    def test_a_forced_and_an_unforced_plan_are_two_entries(self, catalog):
        optimizer = Optimizer(catalog)
        query = parse(self.TEXTS[0])
        chosen = optimizer.plan(query)
        forced = optimizer.plan(query, force="scan")
        assert chosen.description != forced.description
        assert optimizer.plan(query) is chosen
        assert optimizer.plan(query, force="scan") is forced

    def test_the_bound_is_the_statement_cache_size(self, catalog):
        optimizer = Optimizer(catalog)
        fresh = parse_statement.__wrapped__  # one tree per call
        queries = [
            fresh(f"select p.age from p in Patients where p.mrn < {k}")
            for k in range(STATEMENT_CACHE_SIZE + 1)
        ]
        plans = [optimizer.plan(query) for query in queries]
        assert optimizer.plan(queries[-1]) is plans[-1]
        assert optimizer.plan(queries[1]) is plans[1]  # the bound is kept
        assert optimizer.plan(queries[0]) is not plans[0]  # the oldest went
