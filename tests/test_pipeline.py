"""Tests for the pipelined operator execution layer.

Covers the equivalence guarantee (a fully drained pipeline yields the
same rows and charges the same simulated time at any batch size), early
exit (``limit`` / first-batch
consumers pay a fraction of the full drain and leak nothing),
peak-live-row bounds, the batch-boundary scheduler yields, and the
``first_row_ms`` / ``peak_rows`` stats plumbing through to CSV.
"""

from __future__ import annotations

from types import GeneratorType

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import OQLSyntaxError
from repro.exec import ALGORITHMS, TreeJoinQuery
from repro.exec.operators import (
    DEFAULT_BATCH_SIZE,
    JOIN_OPERATORS,
    Cursor,
    Operator,
    PipelineContext,
)
from repro.exec.operators.transforms import Distinct, Limit, Sort
from repro.oql import Catalog, OQLEngine
from repro.oql.parser import parse
from repro.oql.printer import print_query
from repro.service import MixConfig, QueryService, WorkloadMixer
from repro.simtime import Bucket, CostParams
from repro.units import pages_for_bytes

SECTION5_ALGORITHMS = ("NL", "NOJOIN", "PHJ", "CHJ")
EXTENSION_ALGORITHMS = ("SMJ", "PHJ-HYBRID")
CLUSTERINGS = (Clustering.CLASS, Clustering.COMPOSITION, Clustering.RANDOM)
SCALE = 0.002


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def derby_cache():
    """One lazily built database per (relationship, clustering)."""
    cache = {}

    def get(relationship: str, clustering: Clustering):
        key = (relationship, clustering)
        if key not in cache:
            maker = (
                DerbyConfig.db_1to3
                if relationship == "1:3"
                else DerbyConfig.db_1to1000
            )
            cache[key] = load_derby(
                maker(scale=SCALE, clustering=clustering)
            )
        return cache[key]

    return get


@pytest.fixture(scope="module")
def big_derby():
    """The paper's big (1M-provider) database config, scaled down but
    large enough that a full patients scan dwarfs a ``limit 10``."""
    return load_derby(DerbyConfig.db_1to3(scale=0.005))


def fresh_tiny_derby():
    return load_derby(DerbyConfig.db_1to3(scale=0.00001))


def make_query(derby, sel_children=30, sel_parents=50) -> TreeJoinQuery:
    return TreeJoinQuery(
        db=derby.db,
        parent_index=derby.by_upin,
        child_index=derby.by_mrn,
        parent_high=derby.config.upin_threshold(sel_parents),
        child_high=derby.config.mrn_threshold(sel_children),
    )


def join_op(q: TreeJoinQuery, algorithm: str):
    """The named join operator over a fresh context, as the engine
    builds it."""
    return JOIN_OPERATORS[algorithm](PipelineContext(q.db), q)


def tree_height(op) -> int:
    """Height of an operator tree (1 for a leaf): a pipeline holds at
    most one batch per level."""
    return 1 + max((tree_height(c) for c in op.children()), default=0)


def cost_snapshot(db):
    return (
        db.clock.elapsed_s,
        tuple(sorted(db.clock.breakdown().items())),
        db.counters.snapshot(),
    )


# ------------------------------------------- equivalence (the tentpole)

class TestJoinEquivalence:
    """Drained pipelines are row- and cost-identical to the default drain at
    every batch size, for every algorithm x database x clustering."""

    @pytest.mark.parametrize("clustering", CLUSTERINGS,
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("relationship", ("1:3", "1:1000"))
    @pytest.mark.parametrize("algorithm", SECTION5_ALGORITHMS)
    def test_section5_algorithms(
        self, derby_cache, algorithm, relationship, clustering
    ):
        self.check(derby_cache(relationship, clustering), algorithm)

    @pytest.mark.parametrize("algorithm", EXTENSION_ALGORITHMS)
    def test_extension_algorithms(self, derby_cache, algorithm):
        self.check(derby_cache("1:1000", Clustering.CLASS), algorithm)

    def check(self, derby, algorithm):
        q = make_query(derby)
        derby.start_cold_run()
        op = join_op(q, algorithm)
        with Cursor(op.ctx, op) as cursor:
            expected_rows = cursor.drain()
        expected_cost = cost_snapshot(derby.db)
        for batch_size in (1, 17, DEFAULT_BATCH_SIZE):
            derby.start_cold_run()
            op = join_op(q, algorithm)
            rows = Cursor(op.ctx, op, batch_size).drain()
            assert rows == expected_rows, (algorithm, batch_size)
            assert cost_snapshot(derby.db) == expected_cost, (
                algorithm, batch_size
            )


class TestEngineEquivalence:
    QUERIES = (
        "select p.age from p in Patients where p.num > {num30}",
        "select tuple(m: p.mrn, a: p.age) from p in Patients "
        "where p.age < 50 order by p.age desc, p.mrn",
        "select avg(p.age) from p in Patients where p.mrn < {mrn40}",
        "select tuple(n: p.name, a: pa.age) "
        "from p in Providers, pa in p.clients "
        "where pa.mrn < {mrn30} and p.upin < {upin50}",
    )

    @pytest.mark.parametrize(
        "query", QUERIES,
        ids=("indexed", "order-by", "aggregate", "tree-join"),
    )
    def test_execute_iter_drained_equals_execute(self, derby_cache, query):
        derby = derby_cache("1:1000", Clustering.CLASS)
        c = derby.config
        oql = query.format(
            num30=c.num_threshold(30), mrn40=c.mrn_threshold(40),
            mrn30=c.mrn_threshold(30), upin50=c.upin_threshold(50),
        )
        engine = OQLEngine(Catalog.from_derby(derby))
        derby.start_cold_run()
        expected_rows = engine.execute(oql)
        expected_cost = cost_snapshot(derby.db)
        for batch_size in (1, 13, DEFAULT_BATCH_SIZE):
            derby.start_cold_run()
            rows = engine.execute_iter(oql, batch_size).drain()
            assert rows == expected_rows, batch_size
            assert cost_snapshot(derby.db) == expected_cost, batch_size


# --------------------------------------------------------- early exit

class TestEarlyExit:
    FULL = "select p.mrn from p in Patients where p.age >= 0"

    def test_limit_charges_under_5pct_of_full_scan(self, big_derby):
        derby = big_derby
        engine = OQLEngine(Catalog.from_derby(derby))
        derby.start_cold_run()
        start = cost_snapshot(derby.db)
        full_rows = engine.execute(self.FULL)
        full_s = derby.db.clock.elapsed_s - start[0]
        full_reads = derby.db.counters.snapshot().disk_reads \
            - start[2].disk_reads

        derby.start_cold_run()
        start = cost_snapshot(derby.db)
        limited = engine.execute(self.FULL + " limit 10")
        limit_s = derby.db.clock.elapsed_s - start[0]
        limit_reads = derby.db.counters.snapshot().disk_reads \
            - start[2].disk_reads

        assert limited == full_rows[:10]
        assert full_reads > 100  # the full scan really reads the extent
        assert limit_reads < 0.05 * full_reads
        assert limit_s < 0.05 * full_s
        stats = engine.last_stats
        assert stats.rows == 10
        assert stats.first_row_s is not None

    def test_first_batch_consumer_pays_a_fraction_and_leaks_nothing(
        self, big_derby
    ):
        derby = big_derby
        engine = OQLEngine(Catalog.from_derby(derby))
        derby.start_cold_run()
        engine.execute(self.FULL)
        full_s = derby.db.clock.elapsed_s

        derby.start_cold_run()
        cursor = engine.execute_iter(self.FULL, batch_size=16)
        batches = cursor.batches()
        first = next(batches)
        batches.close()  # abandon mid-stream -> the cursor closes
        assert len(first) == 16
        assert derby.db.clock.elapsed_s < 0.05 * full_s
        assert derby.db.handles.live_count == 0
        assert cursor.ctx._live_rows == 0

    def test_exists_query_streams_first_row_early(self, big_derby):
        derby = big_derby
        engine = OQLEngine(Catalog.from_derby(derby))
        oql = (
            "select p.name from p in Providers "
            "where exists pa in p.clients : pa.age >= 0"
        )
        derby.start_cold_run()
        engine.execute(oql)
        full_s = derby.db.clock.elapsed_s
        derby.start_cold_run()
        with engine.execute_iter(oql, batch_size=1) as cursor:
            row = next(cursor.batches())[0]
        assert row is not None
        assert derby.db.clock.elapsed_s < 0.05 * full_s
        assert derby.db.handles.live_count == 0


class TestJoinEarlyExit:
    """Every join is a suspended generator between pulls: closing it
    mid-stream leaks nothing and charges what is owed exactly once."""

    def open_join(self, derby_cache, algorithm):
        derby = derby_cache("1:3", Clustering.CLASS)
        derby.start_cold_run()
        op = join_op(make_query(derby, 90, 90), algorithm)
        op.open()
        if algorithm == "PHJ-HYBRID":
            assert op._spill_fraction > 0, "test setup must force a spill"
        return derby.db, op

    @pytest.mark.parametrize("batch_size", (1, 3))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_close_after_one_batch(self, derby_cache, algorithm, batch_size):
        db, op = self.open_join(derby_cache, algorithm)
        rows = op._iter
        assert len(op.next_batch(batch_size)) == batch_size
        reads = db.counters.disk_reads
        op.close()
        if algorithm == "PHJ-HYBRID":
            # The probes made so far are charged their spill, once.
            owed = pages_for_bytes(op._probe_bytes)
            assert db.counters.disk_reads - reads == owed > 0
        assert db.handles.live_count == 0
        assert op.ctx._live_rows == 0
        assert isinstance(rows, GeneratorType) and rows.gi_frame is None
        after_close = cost_snapshot(db)
        op.close()  # a no-op
        assert cost_snapshot(db) == after_close
        with pytest.raises(RuntimeError):
            op.next_batch(batch_size)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_close_after_exhaustion_charges_nothing(
        self, derby_cache, algorithm
    ):
        db, op = self.open_join(derby_cache, algorithm)
        while op.next_batch(DEFAULT_BATCH_SIZE):
            pass
        exhausted = cost_snapshot(db)
        op.close()
        assert cost_snapshot(db) == exhausted
        assert db.handles.live_count == 0
        assert op.ctx._live_rows == 0


# ------------------------------------------------------ peak live rows

class TestPeakRows:
    @pytest.mark.parametrize("batch_size", (1, 16, DEFAULT_BATCH_SIZE))
    def test_streaming_selection_bounded(self, derby_cache, batch_size):
        derby = derby_cache("1:1000", Clustering.CLASS)
        engine = OQLEngine(Catalog.from_derby(derby))
        root = engine.compile(
            "select p.age from p in Patients where p.age >= 0"
        )
        derby.start_cold_run()
        cursor = Cursor(root.ctx, root, batch_size)
        rows = cursor.drain()
        assert rows
        assert cursor.stats.peak_rows <= batch_size * tree_height(root)
        assert cursor.ctx._live_rows == 0

    @pytest.mark.parametrize("algorithm", SECTION5_ALGORITHMS)
    @pytest.mark.parametrize("relationship", ("1:3", "1:1000"))
    def test_streaming_joins_bounded(
        self, derby_cache, relationship, algorithm
    ):
        derby = derby_cache(relationship, Clustering.CLASS)
        derby.start_cold_run()
        batch_size = 8
        op = join_op(make_query(derby), algorithm)
        cursor = Cursor(op.ctx, op, batch_size)
        rows = cursor.drain()
        assert rows
        assert cursor.stats.peak_rows <= batch_size * tree_height(op)
        assert cursor.ctx._live_rows == 0


# ------------------------------------------------------ operator units

class ListSource(Operator):
    """Emits a fixed row list in batches (test scaffolding)."""

    def __init__(self, ctx, rows):
        super().__init__(ctx)
        self.rows = list(rows)
        self._pos = 0

    def _next(self, n):
        batch = self.rows[self._pos:self._pos + n]
        self._pos += len(batch)
        return batch


class TestOperatorUnits:
    @pytest.fixture()
    def ctx(self):
        derby = fresh_tiny_derby()
        return PipelineContext(derby.db)

    def test_lifecycle_is_enforced_and_idempotent(self, ctx):
        op = ListSource(ctx, [1, 2, 3])
        with pytest.raises(RuntimeError):
            op.next_batch(2)
        op.open()
        op.open()  # idempotent
        assert op.next_batch(2) == [1, 2]
        op.close()
        op.close()  # idempotent
        with pytest.raises(RuntimeError):
            op.next_batch(2)

    def test_distinct_never_emits_a_spurious_empty_batch(self, ctx):
        source = ListSource(ctx, [7] * 99 + [8])
        op = Distinct(ctx, source)
        op.open()
        assert op.next_batch(1) == [7]
        # 98 consecutive duplicates must not surface as an empty batch.
        assert op.next_batch(10) == [8]
        assert op.next_batch(10) == []
        op.close()

    def test_limit_clamps_and_early_exits(self, ctx):
        source = ListSource(ctx, list(range(50)))
        op = Limit(ctx, source, 7)
        op.open()
        assert op.next_batch(5) == [0, 1, 2, 3, 4]
        assert op.next_batch(5) == [5, 6]
        assert op.next_batch(5) == []
        # The source was never pulled past the quota.
        assert source._pos == 7
        op.close()
        with pytest.raises(ValueError):
            Limit(ctx, source, -1)

    def test_distinct_keeps_first_seen_order(self, ctx):
        op = Distinct(ctx, ListSource(ctx, [3, 1, 3, 2, 1, 4]))
        op.open()
        assert op.next_batch(10) == [3, 1, 2, 4]
        op.close()

    @pytest.mark.parametrize("n", (1, 4, 7))
    def test_distinct_returns_at_most_n_rows_per_pull(self, ctx, n):
        """A whole source batch used to be appended whenever the output
        was short: 7 rows for ``n = 4`` here, and 11 live rows."""
        rows = [1, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        op = Distinct(ctx, ListSource(ctx, rows))
        op.open()
        pulls = []
        while batch := op.next_batch(n):
            pulls.append(batch)
        op.close()
        assert all(len(batch) <= n for batch in pulls), pulls
        assert [row for batch in pulls for row in batch] == list(range(1, 10))
        assert ctx.stats.peak_rows <= n * tree_height(op)
        assert ctx._live_rows == 0

    def test_sort_orders_and_charges_sort_bucket(self, ctx):
        rows = [((30,), "c"), ((10,), "a"), ((20,), "b")]
        op = Sort(ctx, ListSource(ctx, rows), [("age", True)])
        op.open()
        before = ctx.db.clock.buckets.get(Bucket.SORT, 0.0)
        assert op.next_batch(10) == ["c", "b", "a"]
        assert ctx.db.clock.buckets.get(Bucket.SORT, 0.0) > before
        op.close()
        assert ctx._live_rows == 0

    def test_depth_counts_tree_height(self, ctx):
        source = ListSource(ctx, [1])
        assert tree_height(source) == 1
        tree = Limit(ctx, Distinct(ctx, source), 1)
        assert tree_height(tree) == 3
        assert [len(line) - len(line.lstrip()) for line in tree.explain()] == [0, 2, 4]

    def test_live_row_accounting_peaks_and_drains(self, ctx):
        op = ListSource(ctx, list(range(40)))
        cursor = Cursor(ctx, op, batch_size=8)
        assert cursor.drain() == list(range(40))
        assert ctx.stats.peak_rows == 8
        assert ctx.stats.rows == 40
        assert ctx.stats.batches == 5
        assert ctx._live_rows == 0

    def test_cursor_on_close_fires_exactly_once(self, ctx):
        fired = []
        cursor = Cursor(ctx, ListSource(ctx, [1, 2]), batch_size=4)
        cursor.on_close = lambda: fired.append(True)
        cursor.drain()
        cursor.close()
        assert fired == [True]
        with pytest.raises(ValueError):
            Cursor(ctx, ListSource(ctx, []), batch_size=0)


# ----------------------------------------------------------- OQL limit

class TestOqlLimit:
    def test_parse_and_print_round_trip(self):
        query = parse(
            "select p.age from p in Patients where p.num > 5 limit 10"
        )
        assert query.limit == 10
        assert print_query(query).endswith("limit 10")
        assert parse(print_query(query)).limit == 10

    def test_no_limit_is_none(self):
        assert parse("select p.age from p in Patients").limit is None

    def test_limit_requires_an_integer(self):
        with pytest.raises(OQLSyntaxError):
            parse("select p.age from p in Patients limit ten")


# ------------------------------------------- service batch boundaries

class TestServiceBatching:
    SCAN = "select p.mrn from p in Patients where p.age >= 0"

    def run_mix(self, batch_size):
        config = MixConfig.from_clients(
            4, ops_per_client=2, seed=5, batch_size=batch_size,
            scan_selectivity_pct=90.0,  # ~25 rows on the tiny database
        )
        mixer = WorkloadMixer(fresh_tiny_derby(), config)
        report = mixer.run()
        return report, mixer.service.scheduler

    def test_scanners_yield_at_batch_boundaries_deterministically(self):
        r1, s1 = self.run_mix(batch_size=4)
        r2, s2 = self.run_mix(batch_size=4)
        assert s1.batch_yields > 0
        # The interleaving is deterministic: identical yields, switches
        # and outcomes on a fresh database.
        assert s1.batch_yields == s2.batch_yields
        assert s1.context_switches == s2.context_switches
        assert r1.elapsed_s == pytest.approx(r2.elapsed_s)
        assert (r1.committed, r1.aborted, r1.deadlocks, r1.timeouts) == (
            r2.committed, r2.aborted, r2.deadlocks, r2.timeouts
        )

    def test_batch_size_changes_interleaving_not_outcomes(self):
        fine, fine_sched = self.run_mix(batch_size=2)
        coarse, coarse_sched = self.run_mix(batch_size=None)
        assert fine_sched.batch_yields > coarse_sched.batch_yields
        assert (fine.committed, fine.aborted, fine.deadlocks) == (
            coarse.committed, coarse.aborted, coarse.deadlocks
        )

    def test_switch_trace_interleaves_scans_at_batch_boundaries(self):
        derby = fresh_tiny_derby()
        derby.start_cold_run()
        service = QueryService(derby)
        one = service.open_session("one")
        two = service.open_session("two")
        one.batch_size = two.batch_size = 4
        trace = []
        inner = service._on_switch
        service._on_switch = lambda task: (
            trace.append(task.name), inner(task)
        )
        service.spawn(one, lambda: one.execute(self.SCAN))
        service.spawn(two, lambda: two.execute(self.SCAN))
        tasks = service.run()
        service.close()
        assert [t.error for t in tasks] == [None, None]
        assert service.scheduler.batch_yields > 0
        # Both queries return > batch_size rows, so the baton must have
        # alternated mid-query rather than running each scan to the end.
        handoffs = [
            (a, b) for a, b in zip(trace, trace[1:]) if a != b
        ]
        assert len(handoffs) > 2
        assert one.metrics.batches > 1
        assert one.metrics.peak_rows <= 4 * 4  # batch x depth bound
        assert one.metrics.mean_first_row_ms > 0

    def test_session_metrics_fold_in_pipeline_stats(self):
        derby = fresh_tiny_derby()
        derby.start_cold_run()
        service = QueryService(derby)
        session = service.open_session("s")
        service.spawn(session, lambda: session.execute(self.SCAN))
        service.run()
        service.close()
        m = session.metrics
        assert m.queries == 1
        assert m.batches >= 1
        assert m.first_row_samples == 1
        assert m.mean_first_row_ms > 0
        assert m.peak_rows > 0


# -------------------------------------------------------- stats / CSV

class TestStatsPlumbing:
    def test_record_experiment_round_trips_pipeline_columns(self):
        from repro.stats import StatsDatabase, to_csv

        derby = fresh_tiny_derby()
        stats = StatsDatabase()
        stats.record_experiment(
            algo="NL", cluster="class", elapsed_s=1.5,
            meters=derby.db.counters.snapshot(),
            first_row_ms=12.5, peak_rows=77,
        )
        stats.record_experiment(
            algo="PHJ", cluster="class", elapsed_s=2.5,
            meters=derby.db.counters.snapshot(),
        )
        rows = stats.rows()
        assert rows[0].first_row_ms == 12.5
        assert rows[0].peak_rows == 77
        assert rows[1].first_row_ms == 0.0
        assert rows[1].peak_rows == 0
        csv = to_csv(rows)
        header, first, __ = csv.splitlines()
        assert header.endswith(
            "first_row_ms,peak_rows,retries,cancelled,over_budget"
        )
        assert first.endswith("12.5000,77,0,0,0")

    def test_mix_records_and_exports_pipeline_columns(self):
        from repro.stats import StatsDatabase, mix_to_csv

        stats = StatsDatabase()
        config = MixConfig.from_clients(
            3, ops_per_client=1, seed=2, batch_size=4
        )
        report = WorkloadMixer(
            fresh_tiny_derby(), config, stats=stats
        ).run()
        scanner_stat = [r for r in stats.rows() if r.algo == "mix-scanner"]
        assert scanner_stat[0].first_row_ms > 0
        assert scanner_stat[0].peak_rows > 0
        csv = mix_to_csv(report)
        lines = csv.splitlines()
        header = lines[0].split(",")
        assert header[-6:] == [
            "first_row_ms", "peak_rows", "retries",
            "cancelled", "over_budget", "queue_wait_ms",
        ]
        scanner_line = next(
            line for line in lines if line.startswith("scanner")
        )
        peak = int(scanner_line.split(",")[header.index("peak_rows")])
        assert peak > 0

    def test_mix_cli_accepts_batch_size(self, capsys):
        from repro.cli import main

        assert main([
            "mix", "--db", "1to3", "--scale", "0.00001",
            "--clients", "2", "--ops", "1", "--batch-size", "4",
        ]) == 0
        assert "aggregate" in capsys.readouterr().out
