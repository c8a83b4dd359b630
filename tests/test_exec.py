"""Tests for the execution engine: hash tables, scans, and all six join
algorithms (correctness against a pure-Python reference)."""

from __future__ import annotations

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import selection_query_text
from repro.cluster import load_derby
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.exec import (
    ALGORITHMS,
    Cursor,
    PipelineContext,
    QueryHashTable,
    TreeJoinQuery,
    chj_table_bytes,
    phj_table_bytes,
)
from repro.exec.operators import JOIN_OPERATORS, IndexScan
from repro.oql import Catalog, OQLEngine
from repro.simtime import Bucket, CostParams, CounterSet, SimClock, swapped_fraction
from repro.units import MB


# ------------------------------------------------------------- hash table

class TestQueryHashTable:
    def make(self, entry_bytes=64, budget=None, bucket=0):
        clock = SimClock()
        counters = CounterSet()
        table = QueryHashTable(
            clock,
            CostParams(),
            counters,
            entry_bytes,
            bucket_bytes=bucket,
            budget_bytes=budget,
        )
        return clock, counters, table

    def test_insert_probe(self):
        __, ___, table = self.make()
        table.insert("a", 1)
        table.insert("a", 2)
        table.insert("b", 3)
        assert table.probe("a") == 1
        assert list(table.probe_all("a")) == [1, 2]
        assert table.probe("zzz") is None
        assert sorted(table._table) == ["a", "b"]

    def test_size_model(self):
        __, ___, table = self.make(entry_bytes=64)
        assert table.table_bytes == 0
        table.insert("a", 1)
        table.insert("b", 2)
        assert table.table_bytes == 128

    def test_lazy_bucket_size_model(self):
        """CHJ-style accounting: a bucket materializes per distinct key,
        payload bytes per entry."""
        __, ___, table = self.make(entry_bytes=8, bucket=60)
        table.insert("p1", 1)
        table.insert("p1", 2)
        table.insert("p2", 3)
        assert table.table_bytes == 2 * 60 + 3 * 8

    def test_figure10_phj_sizes(self):
        """Reproduce Figure 10's PHJ column exactly (in MB)."""
        assert phj_table_bytes(200) / MB == pytest.approx(0.0122, abs=0.001)
        assert phj_table_bytes(1800) / MB == pytest.approx(0.1098, abs=0.01)
        assert phj_table_bytes(100_000) / MB == pytest.approx(6.1, abs=0.4)
        assert phj_table_bytes(900_000) / MB == pytest.approx(54.9, abs=3)

    def test_figure10_chj_sizes(self):
        """Reproduce Figure 10's CHJ column exactly (in MB)."""
        assert chj_table_bytes(2000, 200_000) / MB == pytest.approx(1.64, abs=0.1)
        assert chj_table_bytes(2000, 1_800_000) / MB == pytest.approx(13.8, abs=0.8)
        assert chj_table_bytes(1_000_000, 300_000) / MB == pytest.approx(59.5, abs=3)
        assert chj_table_bytes(1_000_000, 2_700_000) / MB == pytest.approx(77.8, abs=4)

    def test_no_swap_within_budget(self):
        clock, counters, table = self.make(entry_bytes=64, budget=64 * 100)
        for i in range(100):
            table.insert(i, i)
        assert clock.buckets.get(Bucket.SWAP, 0.0) == 0.0
        assert counters.swap_faults == 0

    def test_swap_penalty_beyond_budget(self):
        clock, counters, table = self.make(entry_bytes=64, budget=64 * 100)
        for i in range(200):
            table.insert(i, i)
        assert paged_out(table) == pytest.approx(0.5, abs=0.01)
        assert clock.buckets.get(Bucket.SWAP, 0.0) > 0.0
        assert counters.swap_faults > 0

    def test_probe_also_pays_swap(self):
        clock, __, table = self.make(entry_bytes=64, budget=64)
        for i in range(100):
            table.insert(i, i)
        before = clock.buckets.get(Bucket.SWAP, 0.0)
        table.probe(5)
        assert clock.buckets.get(Bucket.SWAP, 0.0) > before

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            self.make(entry_bytes=-1)


def paged_out(table) -> float:
    """Fraction of a hash table beyond its budget, by the one swap rule
    the planner prices it with."""
    return swapped_fraction(table.table_bytes, table.budget_bytes)


class ReferenceHashTable:
    """The size model and the touch charge as they were written before
    the table kept a running byte count: the three-term formula derived
    afresh on every touch, the charges made through ``charge_us`` /
    ``charge_ms``.  Kept as the reference the table is replayed
    against."""

    def __init__(self, entry_bytes, bucket_bytes, budget_bytes):
        self.clock, self.counters, self.params = SimClock(), CounterSet(), CostParams()
        self.entry_bytes = entry_bytes
        self.bucket_bytes, self.budget_bytes = bucket_bytes, budget_bytes
        self.keys: set = set()
        self.entries = 0
        self.swap_accum = 0.0

    @property
    def table_bytes(self) -> int:
        return self.entries * self.entry_bytes + len(self.keys) * self.bucket_bytes

    def charge_touch(self, base_us: float) -> None:
        self.clock.charge_us(Bucket.CPU, base_us)
        fraction = paged_out(self)
        if fraction > 0.0:
            self.clock.charge_ms(Bucket.SWAP, self.params.swap_fault_ms * fraction)
            self.swap_accum += fraction
            faults = int(self.swap_accum)
            if faults:
                self.counters.swap_faults += faults
                self.swap_accum -= faults

    def insert(self, key) -> None:
        self.entries += 1
        self.charge_touch(self.params.hash_insert_us)
        self.keys.add(key)

    def probe(self, key) -> None:
        self.charge_touch(self.params.hash_probe_us)


class TestHashTableAgainstReference:
    """``table_bytes`` is a running count and the touch charge is made
    in place, its swap comparison inline; all must be, to the bit, what
    the formula, the one swap rule (``swapped_fraction``, which the
    planner prices with; budgets from 0 up) and the ``charge_*`` calls
    gave."""

    @given(
        sizes=st.tuples(
            st.sampled_from([0, 8, 64]),     # entry_bytes
            st.sampled_from([0, 60]),        # bucket_bytes
            st.integers(0, 2500),            # budget_bytes
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "probe", "probe_all"]),
                st.integers(0, 12),          # few keys: buckets repeat
            ),
            max_size=60,
        ),
    )
    @example(  # the budget is crossed mid-build, between two buckets
        sizes=(8, 60, 200),
        ops=[("insert", k % 3) for k in range(12)] + [("probe", 1)],
    )
    @example(sizes=(64, 0, 0), ops=[("probe", 0), ("insert", 0), ("probe", 0)])
    @example(sizes=(0, 0, 0), ops=[("insert", 0), ("probe", 0)])  # size 0
    @settings(max_examples=150, deadline=None)
    def test_replay_matches_the_formula_and_the_charge_calls(self, sizes, ops):
        entry, bucket, budget = sizes
        clock, counters = SimClock(), CounterSet()
        table = QueryHashTable(
            clock, CostParams(), counters, entry,
            bucket_bytes=bucket, budget_bytes=budget,
        )
        reference = ReferenceHashTable(entry, bucket, budget)
        assert table.table_bytes == reference.table_bytes == 0
        for op, key in ops:
            if op == "insert":
                table.insert(key, key)
                reference.insert(key)
            else:
                getattr(table, op)(key)
                reference.probe(key)
            assert table.table_bytes == reference.table_bytes == (
                sum(map(len, table._table.values())) * entry
                + len(table._table) * bucket
            )
            assert paged_out(table) == paged_out(reference)
            assert clock.breakdown() == reference.clock.breakdown()
            assert counters.swap_faults == reference.counters.swap_faults

    def test_the_bucket_is_counted_after_the_touch_that_makes_it(self):
        """An insert is charged on the size with its entry counted and
        its new bucket not yet: 8 + 0 fits a budget of 8, 8 + 60 would
        not."""
        clock, counters = SimClock(), CounterSet()
        table = QueryHashTable(
            clock, CostParams(), counters, 8, bucket_bytes=60, budget_bytes=8
        )
        table.insert("parent", 1)
        assert clock.buckets.get(Bucket.SWAP, 0.0) == 0.0
        assert table.table_bytes == 68
        table.probe("parent")
        assert clock.buckets.get(Bucket.SWAP, 0.0) > 0.0


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
def logical(derby):
    return generate(derby.config)


@pytest.fixture(scope="module")
def engine(derby):
    return OQLEngine(Catalog.from_derby(derby))


def select(derby, engine, method: str, selectivity_pct: float) -> list:
    """One cold run of the Section 4 selection (``num > k``, projecting
    ``age``) under the plan ``method`` forces."""
    text = selection_query_text(derby.config, selectivity_pct)
    derby.start_cold_run()
    return engine.execute_iter(engine.plan(text, force=method)).drain()


def drain_join(q: TreeJoinQuery, algorithm: str) -> list[tuple]:
    """Every row of the named join operator, run as the engine runs it."""
    op = JOIN_OPERATORS[algorithm](PipelineContext(q.db), q)
    with Cursor(op.ctx, op) as cursor:
        return cursor.drain()


def reference_join(derby, logical, k1: int, k2: int) -> list[tuple]:
    """Ground truth computed from the logical database."""
    out = []
    for i in range(logical.n_providers):
        if logical.upin[i] >= k2:
            continue
        for j in logical.patients_of(i):
            if logical.mrn[j] < k1:
                out.append((logical.provider_name[i], logical.age[j]))
    return sorted(out)


def make_query(derby, k1: int, k2: int) -> TreeJoinQuery:
    return TreeJoinQuery(
        db=derby.db,
        parent_index=derby.by_upin,
        child_index=derby.by_mrn,
        parent_high=k2,
        child_high=k1,
    )


# ------------------------------------------------------------- scans

class TestSelections:
    def test_forced_scan_matches_reference(self, derby, logical, engine):
        rows = select(derby, engine, "scan", 10)
        k = derby.config.num_threshold(10)
        expected = sorted(
            age for age, num in zip(logical.age, logical.num) if num > k
        )
        assert sorted(rows) == expected

    def test_scan_io_independent_of_selectivity(self, derby, engine):
        """Paper §4.2: without an index the I/O count does not depend on
        the selectivity."""
        def reads(sel_pct):
            select(derby, engine, "scan", sel_pct)
            return derby.db.counters.disk_reads

        assert reads(0.5) == reads(90)

    def test_forced_index_matches_scan(self, derby, engine):
        by_scan = select(derby, engine, "scan", 30)
        by_index = select(derby, engine, "index", 30)
        assert sorted(by_index) == sorted(by_scan)

    def test_sorted_index_scan_same_rows_less_random_io(self, derby, engine):
        unsorted = select(derby, engine, "index", 60)
        unsorted_reads = derby.db.counters.disk_reads
        sorted_scan = select(derby, engine, "sorted-index", 60)
        sorted_reads = derby.db.counters.disk_reads
        assert sorted(sorted_scan) == sorted(unsorted)
        assert sorted_reads < unsorted_reads

    def test_sorted_scan_charges_sort_bucket(self, derby, engine):
        select(derby, engine, "sorted-index", 90)
        assert derby.db.clock.buckets.get(Bucket.SORT, 0.0) > 0

    def test_an_index_scan_builds_no_rid(self, derby):
        """The rids a full index scan hands back are the very objects the
        load filed, not equal copies: each leaf shares the rids it was
        written from, so the index holds one pointer per entry."""
        assert derby.config.index_first
        ctx = PipelineContext(derby.db)
        scanned = Cursor(ctx, IndexScan(ctx, derby.by_mrn, None, None)).drain()
        assert len(scanned) == len(derby.patient_rids) == 1200
        assert all(map(operator.is_, scanned, derby.patient_rids))

    def test_transactional_result_costs_more(self, derby, engine):
        """A selection builds its result "as if it could become
        persistent": each row pays the transactional append price, not
        the cheaper transient one."""
        rows = select(derby, engine, "index", 50)
        params = derby.db.params
        assert params.result_append_txn_us > params.result_append_us
        assert derby.db.clock.buckets.get(Bucket.RESULT, 0.0) == pytest.approx(
            len(rows) * params.result_append_txn_us / 1e6
        )


# ------------------------------------------------------------- joins

class TestJoinAlgorithms:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("sel", [(10, 10), (10, 90), (90, 10), (90, 90)])
    def test_all_algorithms_match_reference(self, derby, logical, algo, sel):
        sel_pat, sel_prov = sel
        k1 = derby.config.mrn_threshold(sel_pat)
        k2 = derby.config.upin_threshold(sel_prov)
        derby.start_cold_run()
        rows = drain_join(make_query(derby, k1, k2), algo)
        assert sorted(rows) == reference_join(derby, logical, k1, k2)

    def test_every_algorithm_charges_time(self, derby):
        k1 = derby.config.mrn_threshold(50)
        k2 = derby.config.upin_threshold(50)
        for algo in ALGORITHMS:
            derby.start_cold_run()
            drain_join(make_query(derby, k1, k2), algo)
            assert derby.db.clock.elapsed_s > 0, algo

    def test_nl_reads_more_than_phj_at_high_selectivity(self, derby):
        """Class clustering: NL's random child accesses dwarf PHJ's
        sequential scans (Figure 11's pattern)."""
        k1 = derby.config.mrn_threshold(90)
        k2 = derby.config.upin_threshold(90)
        derby.start_cold_run()
        drain_join(make_query(derby, k1, k2), "NL")
        nl_seconds = derby.db.clock.elapsed_s
        derby.start_cold_run()
        drain_join(make_query(derby, k1, k2), "PHJ")
        phj_seconds = derby.db.clock.elapsed_s
        assert nl_seconds > 2 * phj_seconds

    def test_hybrid_never_slower_than_phj_when_swapping(self):
        """A 1:3-shaped database where the PHJ table exceeds the memory
        budget: hybrid partitioning must beat OS thrashing."""
        cfg = DerbyConfig.db_1to3(scale=0.003)
        derby = load_derby(cfg)
        k1 = cfg.mrn_threshold(90)
        k2 = cfg.upin_threshold(90)
        query = TreeJoinQuery(
            db=derby.db,
            parent_index=derby.by_upin,
            child_index=derby.by_mrn,
            parent_high=k2,
            child_high=k1,
        )
        derby.start_cold_run()
        drain_join(query, "PHJ")
        phj_seconds = derby.db.clock.elapsed_s
        swap_seconds = derby.db.clock.buckets.get(Bucket.SWAP, 0.0)
        assert swap_seconds > 0, "test setup must force swapping"
        derby.start_cold_run()
        drain_join(query, "PHJ-HYBRID")
        hybrid_seconds = derby.db.clock.elapsed_s
        assert derby.db.clock.buckets.get(Bucket.SWAP, 0.0) == 0
        assert hybrid_seconds < phj_seconds
