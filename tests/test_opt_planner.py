"""Tests for the planner's statistics-driven search (``repro.oql.optimizer``).

The contract under test: once ``install_stats`` has run, ``Optimizer``
explores a superset of the alternatives it costs before, labels them
distinctly, always chooses the minimum-estimate plan and produces
semantically identical results; before, it plans narrowly, the way the
heuristic planner always did.  Both searches are one enumeration in
``Optimizer._plan_selection`` (``TestOneEnumeration``).
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import selection_query_text, tree_query_text
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import PlanError
import repro.opt
from repro.opt import StatsCollector, TableStats
from repro.oql import Catalog, OQLEngine, parse_statement
from repro.oql.optimizer import Optimizer
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


@pytest.fixture(scope="module")
def table_stats(catalog):
    return StatsCollector(catalog).collect()


@pytest.fixture(scope="module")
def cost_engine(catalog, table_stats):
    optimizer = Optimizer(catalog, include_extensions=True)
    optimizer.install_stats(table_stats)
    return OQLEngine(catalog, optimizer=optimizer)


@pytest.fixture(scope="module")
def heuristic_engine(catalog):
    return OQLEngine(catalog)


def _chosen_label(plan) -> str:
    labels = [
        name for name, est in plan.alternatives.items()
        if est is plan.estimate
    ]
    assert len(labels) == 1
    return labels[0]


class TestSelectionEnumeration:
    def test_alternative_labels(self, derby, cost_engine):
        query = selection_query_text(derby.config, 30)
        plan = cost_engine.plan(query)
        assert "scan" in plan.alternatives
        assert "index(num)" in plan.alternatives
        assert "sorted-index(num)" in plan.alternatives

    def test_chosen_is_minimum(self, derby, cost_engine):
        for pct in (10, 30, 60, 90):
            plan = cost_engine.plan(selection_query_text(derby.config, pct))
            best = min(e.seconds for e in plan.alternatives.values())
            assert plan.estimate.seconds == best

    def test_high_selectivity_scans(self, derby, cost_engine):
        plan = cost_engine.plan(selection_query_text(derby.config, 90))
        assert _chosen_label(plan) == "scan"

    def test_multi_predicate_enumerates_both_indexes(self, cost_engine):
        plan = cost_engine.plan(
            "select p.age from p in Patients "
            "where p.num > 600 and p.mrn < 100000"
        )
        families = {
            label for label in plan.alternatives
            if label != "scan" and not label.startswith("index-only")
        }
        assert "index(num)" in families or "sorted-index(num)" in families
        assert "index(mrn)" in families or "sorted-index(mrn)" in families

    def test_conjunct_order_does_not_change_the_plan(self, derby, cost_engine):
        """Two conjuncts on one indexed attribute: the more selective one
        drives ``index(mrn)`` whichever is written first, so both orders
        plan, estimate and run alike."""
        texts = [
            f"select p.age from p in Patients where p.mrn < {a} and p.mrn < {b}"
            for a, b in ((50, 5000), (5000, 50))
        ]
        plans, seconds = [], []
        for text in texts:
            plans.append(cost_engine.plan(text))
            derby.start_cold_run()
            cost_engine.execute(text)
            seconds.append(derby.db.clock.elapsed_s)
        first, second = plans
        assert _chosen_label(first) == _chosen_label(second) == "index(mrn)"
        assert (first.predicate, first.index, first.sorted_rids) == (
            second.predicate, second.index, second.sorted_rids
        )
        assert first.predicate.value == 50
        assert first.alternatives == second.alternatives
        assert seconds[0] == seconds[1]

    def test_index_only_aggregate(self, cost_engine):
        plan = cost_engine.plan(
            "select count(p) from p in Patients where p.num < 600"
        )
        assert plan.index_only
        assert _chosen_label(plan) == "index-only(num)"

    def test_index_only_label_absent_for_plain_query(self, cost_engine):
        plan = cost_engine.plan(
            "select p.age from p in Patients where p.num < 600"
        )
        assert not any(
            label.startswith("index-only") for label in plan.alternatives
        )

    def test_est_rows_tracks_actual(self, derby, cost_engine):
        for pct in (10, 60):
            query = selection_query_text(derby.config, pct)
            plan = cost_engine.plan(query)
            rows = cost_engine.execute(query)
            assert plan.est_rows == pytest.approx(len(rows), rel=0.15)


class TestJoinEnumeration:
    def test_all_six_algorithms_with_extensions(self, derby, cost_engine):
        query = tree_query_text(derby.config, 10, 90)
        plan = cost_engine.plan(query)
        assert set(plan.alternatives) == {
            "NL", "NOJOIN", "PHJ", "CHJ", "PHJ-HYBRID", "SMJ"
        }
        assert plan.algorithm in plan.alternatives

    def test_paper_four_without_extensions(self, derby, catalog, table_stats):
        optimizer = Optimizer(catalog)
        optimizer.install_stats(table_stats)
        engine = OQLEngine(catalog, optimizer=optimizer)
        plan = engine.plan(tree_query_text(derby.config, 10, 90))
        assert set(plan.alternatives) == {"NL", "NOJOIN", "PHJ", "CHJ"}

    def test_chosen_is_minimum(self, derby, cost_engine):
        for sel in ((10, 10), (10, 90), (90, 10), (90, 90)):
            plan = cost_engine.plan(tree_query_text(derby.config, *sel))
            best = min(plan.alternatives, key=lambda k:
                       plan.alternatives[k].seconds)
            assert plan.algorithm == best

    def test_est_rows_tracks_actual(self, derby, cost_engine):
        query = tree_query_text(derby.config, 10, 90)
        plan = cost_engine.plan(query)
        rows = cost_engine.execute(query)
        assert plan.est_rows == pytest.approx(len(rows), rel=0.2)


class TestSemanticEquivalence:
    QUERIES = [
        "select p.age from p in Patients where p.num > 600",
        "select count(p) from p in Patients where p.mrn < 100000",
        "select tuple(n: p.name, a: p.age) from p in Patients "
        "where p.num > 900 and p.age < 60 order by p.age",
    ]

    def test_selection_rows_match_heuristic(
        self, cost_engine, heuristic_engine
    ):
        for query in self.QUERIES:
            cost_rows = cost_engine.execute(query)
            heuristic_rows = heuristic_engine.execute(query)
            assert sorted(map(repr, cost_rows)) == sorted(
                map(repr, heuristic_rows)
            )

    def test_join_rows_match_heuristic(
        self, derby, cost_engine, heuristic_engine
    ):
        for sel in ((10, 10), (90, 90)):
            query = tree_query_text(derby.config, *sel)
            cost_rows = cost_engine.execute(query)
            heuristic_rows = heuristic_engine.execute(query)
            assert sorted(map(repr, cost_rows)) == sorted(
                map(repr, heuristic_rows)
            )


class TestFallbackWithoutStats:
    def test_matches_heuristic_choices(self, derby, catalog,
                                       heuristic_engine):
        """Statistics with no histogram fall back to the indexes' own
        selectivities: one-conjunct selections and tree joins plan as
        they did before ``analyze``."""
        optimizer = Optimizer(catalog)
        optimizer.install_stats(TableStats())
        engine = OQLEngine(catalog, optimizer=optimizer)
        for pct in (10, 90):
            query = selection_query_text(derby.config, pct)
            cold = engine.plan(query)
            heuristic = heuristic_engine.plan(query)
            assert (cold.predicate is None) == (heuristic.predicate is None)
            assert cold.sorted_rids == heuristic.sorted_rids
        for sel in ((10, 10), (90, 90)):
            query = tree_query_text(derby.config, *sel)
            assert (engine.plan(query).algorithm
                    == heuristic_engine.plan(query).algorithm)

    def test_stats_property_roundtrip(self, catalog, table_stats):
        optimizer = Optimizer(catalog)
        assert optimizer.estimator.stats is None
        optimizer.install_stats(table_stats)
        assert optimizer.estimator.stats is table_stats


class TestAnalyzeWidensTheSearch:
    """The one planner class: ``analyze``, not a subclass, decides how
    widely a selection is searched."""

    TWO_DRIVERS = (
        "select p.age from p in Patients "
        "where p.mrn < 100000 and p.age != 40 and p.num > 600 order by p.age"
    )

    def test_a_planner_never_analyzed_plans_narrowly(self, catalog):
        # Whatever name it is built under, a planner costs only the
        # best driver until ``analyze`` (the heuristic's estimates).
        assert repro.opt.CostBasedOptimizer is Optimizer
        plan = repro.opt.CostBasedOptimizer(catalog).plan(
            parse_statement(self.TWO_DRIVERS)
        )
        assert [
            (label, round(estimate.seconds, 6))
            for label, estimate in plan.alternatives.items()
        ] == [("scan", 0.815451), ("index", 2.901304),
              ("sorted-index", 0.742084)]

    def test_analyze_on_a_default_engine_widens_its_search(self, catalog):
        # An engine built without a planner argument adopts what its
        # ``analyze`` collects.
        engine = OQLEngine(catalog)
        assert list(engine.plan(self.TWO_DRIVERS).alternatives) == [
            "scan", "index", "sorted-index",
        ]
        engine.execute("analyze Patients")
        assert engine.optimizer.estimator.stats.extent("Patients")
        assert list(engine.plan(self.TWO_DRIVERS).alternatives) == [
            "scan", "index(mrn)", "sorted-index(mrn)",
            "index(num)", "sorted-index(num)",
        ]


class TestForcedPlans:
    """``plan(text, force=name)`` takes the named alternative out of the
    same enumeration: how the figures run each cell."""

    def texts(self, derby):
        return (
            selection_query_text(derby.config, 30),
            tree_query_text(derby.config, 10, 90),
        )

    @pytest.mark.parametrize("which", ("heuristic", "cost"))
    def test_forcing_the_unforced_choice_returns_an_equal_plan(
        self, derby, heuristic_engine, cost_engine, which
    ):
        engine = heuristic_engine if which == "heuristic" else cost_engine
        for text in self.texts(derby):
            plan = engine.plan(text)
            assert engine.plan(text, force=_chosen_label(plan)) == plan

    def test_the_estimate_is_the_forced_alternatives(
        self, derby, heuristic_engine
    ):
        for text in self.texts(derby):
            for name in heuristic_engine.plan(text).alternatives:
                plan = heuristic_engine.plan(text, force=name)
                assert plan.estimate == plan.alternatives[name]
                assert _chosen_label(plan) == name

    def test_an_unknown_name_raises_naming_the_alternatives(
        self, derby, heuristic_engine
    ):
        selection, join = self.texts(derby)
        with pytest.raises(
            PlanError, match="'hash': the alternatives are scan, index, sorted-index"
        ):
            heuristic_engine.plan(selection, force="hash")
        with pytest.raises(
            PlanError,
            match="'ZIGZAG': the alternatives are NL, NOJOIN, PHJ, CHJ, "
            "PHJ-HYBRID, SMJ",
        ):
            heuristic_engine.plan(join, force="ZIGZAG")

    @pytest.mark.parametrize("algorithm", ("SMJ", "PHJ-HYBRID"))
    def test_an_extension_can_be_forced_on_a_default_engine(
        self, derby, catalog, algorithm
    ):
        engine = OQLEngine(catalog)
        assert not engine.optimizer.include_extensions
        __, join = self.texts(derby)
        plan = engine.plan(join, force=algorithm)
        assert plan.algorithm == algorithm
        assert plan.estimate.description == algorithm
        assert sorted(engine.execute_iter(plan).drain()) == sorted(
            engine.execute(join)
        )

    def test_an_analyzed_engine_forces_a_labelled_index(
        self, derby, catalog, cost_engine
    ):
        selection, __ = self.texts(derby)
        plan = cost_engine.plan(selection, force="index(num)")
        assert plan.index is catalog.index_for("Patients", "num")
        assert not plan.sorted_rids
        with pytest.raises(PlanError, match="index\\(num\\)"):
            cost_engine.plan(selection, force="index")


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _spellings(pattern: str, paths=None) -> list[str]:
    """The file (relative to ``src/repro``) of each match of
    ``pattern`` in ``paths`` (default: every module), in path order."""
    found = []
    for path in sorted(paths or SRC.rglob("*.py")):
        found += [path.relative_to(SRC).as_posix()] * len(
            re.findall(pattern, path.read_text())
        )
    return found


def test_join_stats_and_the_inline_set_limit_are_written_once():
    """The estimator is the one builder of the cost model's join input,
    and the inline-set limit lives where the record codec spells it."""
    assert _spellings(r"\bJoinStats\(") == ["oql/estimator.py"]
    assert _spellings(r"\b3400\b") == ["objects/codec.py"]


def test_the_price_list_is_written_once():
    """The simulator and the planner price a sort, a spill pass, a
    handle touch and a rid pair, and decide a swap and a spill, through
    one definition each."""
    params = ["simtime/params.py"]
    assert set(_spellings(r"\bsort_per_element_log_us\b")) == set(params)
    assert _spellings(
        r"page_write_ms\s*\+\s*[\w.]*page_read_ms"
        r"|page_read_ms\s*\+\s*[\w.]*page_write_ms"
    ) == params
    # The budget comparisons of the swap and the spill rule, and the
    # hash table's inline copy of the swap (``test_exec.py`` holds it
    # to the rule), are the only ones.
    assert _spellings(r"(?:>|\s-)\s*(?:self\.)?budget(?:_bytes)?\b(?!\.)") == [
        "exec/hash_table.py", "exec/hash_table.py", *params * 4,
    ]
    # A constant is spelled once, where it is defined: no module that
    # reads it spells its value.
    for name, value in (("TOUCH_FRACTION", r"0\.1"), ("RID_PAIR_BYTES", "16")):
        readers = [SRC / f for f in set(_spellings(rf"\b{name}\b"))]
        assert len(_spellings(rf"\b{name} = ")) == 1
        assert len(_spellings(rf"(?<![\w.]){value}(?![\w.])", readers)) == 1, name


class TestZeroQueryMemory:
    """Below scale 0.001 no memory is left for query structures, and a
    hash table is paged out whole: the planner prices it the way
    ``QueryHashTable`` charges it."""

    @pytest.fixture(scope="class")
    def tiny(self):
        derby = load_derby(DerbyConfig.db_1to3(scale=0.0001))
        assert derby.db.params.memory.query_memory_bytes == 0
        engine = OQLEngine(Catalog.from_derby(derby))
        engine.execute("analyze")
        return derby, engine, engine.plan(tree_query_text(derby.config, 90, 10))

    @pytest.mark.parametrize("algorithm", ["PHJ", "CHJ"])
    def test_a_hash_join_is_priced_with_its_swap(self, tiny, algorithm):
        derby, engine, plan = tiny
        derby.start_cold_run()
        clock = derby.db.clock
        engine.execute(replace(plan, algorithm=algorithm))
        swap_s = clock.breakdown()["swap"]
        assert swap_s > 10 * (clock.elapsed_s - swap_s)
        assert plan.alternatives[algorithm].seconds == pytest.approx(
            clock.elapsed_s, rel=0.05
        )

    def test_the_pick_is_the_join_that_does_not_swap(self, tiny):
        assert tiny[2].algorithm == "NL"


# -- one enumeration, two planners ------------------------------------------

INDEXED = ("mrn", "num")
ATTRS = INDEXED + ("age", "random_integer")
HEADS = {
    "count": ("select count(p)", None),
    "avg-key": ("select avg(p.mrn)", "mrn"),
    "avg-other": ("select avg(p.age)", "age"),
    "plain": ("select p.age", None),
    "ordered": ("select p.age", None),
}


@st.composite
def selections(draw):
    """(query text, head kind, conjunct triples): 0-3 conjuncts over
    distinct attributes, the first one possibly repeated."""
    attrs = draw(st.lists(st.sampled_from(ATTRS), max_size=3, unique=True))
    conjuncts = [
        (attr,
         draw(st.sampled_from(("<", "<=", ">", ">=", "=", "!="))),
         draw(st.sampled_from((0, 5, 40, 600, 1199, 100_000))))
        for attr in attrs
    ]
    if 0 < len(conjuncts) < 3 and draw(st.booleans()):
        conjuncts.append(conjuncts[0])
    kind = draw(st.sampled_from(sorted(HEADS)))
    text = HEADS[kind][0] + " from p in Patients"
    if conjuncts:
        text += " where " + " and ".join(
            f"p.{attr} {op} {value}" for attr, op, value in conjuncts
        )
    if kind == "ordered":
        text += " order by p.age"
    return text, kind, conjuncts


def _check_shape(plan, predicates):
    """What any planner's selection plan looks like."""
    label = _chosen_label(plan)
    assert (label == "scan") == (plan.predicate is None) == (plan.index is None)
    assert plan.sorted_rids == label.startswith("sorted-index")
    assert plan.residuals == tuple(
        p for p in predicates if p != plan.predicate
    )
    if not plan.index_only:
        assert plan.estimate.seconds == min(
            e.seconds for e in plan.alternatives.values()
        )
    return label


class TestOneEnumeration:
    @pytest.fixture(scope="class")
    def planners(self, catalog):
        """A planner never analyzed, and one analyzed into statistics
        that hold no histogram: the second searches every driver with
        the first one's selectivities."""
        analyzed = Optimizer(catalog)
        analyzed.install_stats(TableStats())
        return Optimizer(catalog), analyzed

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(selection=selections())
    def test_planners_agree_before_statistics(self, planners, selection):
        text, kind, conjuncts = selection
        heuristic, cost = planners
        stmt = parse_statement(text)
        predicates = heuristic._selection_parts(stmt).predicates
        h, c = heuristic.plan(stmt), cost.plan(stmt)
        h_label = _check_shape(h, predicates)
        c_label = _check_shape(c, predicates)

        # The index-only test is one decision, taken over *every*
        # conjunct, whichever planner asks.
        drivers = [a for a, op, __ in conjuncts if a in INDEXED and op != "!="]
        index_only = (
            kind in ("count", "avg-key", "avg-other")
            and bool(conjuncts) and len(set(conjuncts)) == 1
            and bool(drivers) and HEADS[kind][1] in (None, drivers[0])
        )
        assert h.index_only == c.index_only == index_only
        if index_only:
            assert (h.predicate, h.index) == (c.predicate, c.index)
            assert h.columns == c.columns == (stmt.select.func,)

        # Key order of the alternatives, as ``explain`` prints them.
        assert list(h.alternatives) == (
            ["scan", "index", "sorted-index"] if drivers else ["scan"]
        )
        assert list(c.alternatives) == ["scan"] + [
            f"{path}({attr})"
            for attr in dict.fromkeys(drivers)
            for path in ("index", "sorted-index")
        ] + ([f"index-only({drivers[0]})"] if index_only else [])

        # index <-> index(attr): the heuristic's one driver is among
        # the enumerator's, costed the same.
        if drivers:
            assert any(
                c.alternatives[f"index({attr})"] == h.alternatives["index"]
                and c.alternatives[f"sorted-index({attr})"]
                == h.alternatives["sorted-index"]
                for attr in drivers
            )
        # With nothing but (at most) one indexed conjunct the two
        # output selectivities coincide, and so does everything else.
        if len(conjuncts) == len(drivers) <= 1:
            assert (h.predicate, h.index, h.sorted_rids, h.residuals) == (
                c.predicate, c.index, c.sorted_rids, c.residuals
            )
            assert h.est_rows == c.est_rows
            assert h.alternatives == {
                label.split("(")[0]: estimate
                for label, estimate in c.alternatives.items()
                if not label.startswith("index-only")
            }
            if not index_only:
                assert h_label == c_label.split("(")[0]
                assert h.estimate == c.estimate

    #: (query, heuristic alternatives, cost alternatives, chosen labels),
    #: estimates in simulated seconds — taken from the parent commit of
    #: the PR that folded the two enumerations into one.
    PINNED = [
        ("select p.age from p in Patients",
         {"scan": 1.17372},
         {"scan": 1.17372},
         ("scan", "scan")),
        ("select p.age from p in Patients where p.num > 1100",
         {"scan": 0.514332, "index": 0.632888, "sorted-index": 0.344364},
         {"scan": 0.514332, "index(num)": 0.632888,
          "sorted-index(num)": 0.344364},
         ("sorted-index", "sorted-index(num)")),
        ("select p.age from p in Patients where p.num > 100",
         {"scan": 1.115749, "index": 5.161115, "sorted-index": 1.135327},
         {"scan": 1.115749, "index(num)": 5.161115,
          "sorted-index(num)": 1.135327},
         ("scan", "scan")),
        ("select p.age from p in Patients "
         "where p.num > 600 and p.mrn < 100000",
         {"scan": 0.815451, "index": 2.901304, "sorted-index": 0.742084},
         {"scan": 0.815451, "index(num)": 2.901304,
          "sorted-index(num)": 0.742084, "index(mrn)": 1.20696,
          "sorted-index(mrn)": 1.211256},
         ("sorted-index", "sorted-index(num)")),
        ("select p.age from p in Patients "
         "where p.mrn < 100000 and p.age != 40 and p.num > 600 order by p.age",
         {"scan": 0.815451, "index": 2.901304, "sorted-index": 0.742084},
         {"scan": 0.811833, "index(mrn)": 1.20696,
          "sorted-index(mrn)": 1.211256, "index(num)": 2.901304,
          "sorted-index(num)": 0.742084},
         ("sorted-index", "sorted-index(num)")),
        ("select count(p) from p in Patients "
         "where p.mrn < 5 and p.mrn < 5",
         {"scan": 0.45612, "index": 0.045204, "sorted-index": 0.045207},
         {"scan": 0.453728, "index(mrn)": 0.045204,
          "sorted-index(mrn)": 0.045207, "index-only(mrn)": 0.000824},
         ("index", "index-only(mrn)")),
        ("select avg(p.age) from p in Patients where p.num < 600",
         {"scan": 0.811989, "index": 2.875256, "sorted-index": 0.737552},
         {"scan": 0.811989, "index(num)": 2.875256,
          "sorted-index(num)": 0.737552},
         ("sorted-index", "sorted-index(num)")),
    ]

    @pytest.mark.parametrize("query, h_alts, c_alts, chosen", PINNED)
    def test_pinned_alternatives(self, planners, query, h_alts, c_alts,
                                 chosen):
        plans = [planner.plan(parse_statement(query)) for planner in planners]
        for plan, alts in zip(plans, (h_alts, c_alts)):
            assert [
                (label, round(estimate.seconds, 6))
                for label, estimate in plan.alternatives.items()
            ] == list(alts.items())
        assert tuple(_chosen_label(plan) for plan in plans) == chosen

    @pytest.mark.parametrize("which", ["heuristic", "cost"])
    def test_repeated_conjunct_is_still_index_only(self, planners, which):
        """Index-only asks that *every* conjunct equal the driver, not
        that the driver be the only conjunct."""
        planner = planners[which == "cost"]
        plan = planner.plan(parse_statement(
            "select count(p) from p in Patients "
            "where p.mrn < 5 and p.mrn < 5"
        ))
        assert plan.index_only
        assert plan.predicate.attr == "mrn" and plan.residuals == ()
        assert plan.columns == ("count",)
