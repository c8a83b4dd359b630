"""Tests for the Figure 3 stats database and its exports."""

from __future__ import annotations

import pytest

from repro.objects.database import CHUNK_RIDS
from repro.simtime import CounterSet, MeterSnapshot
from repro.stats import (
    StatsDatabase,
    build_stats_schema,
    records_to_csv,
    to_csv,
    to_gnuplot,
)


def snapshot(**overrides) -> MeterSnapshot:
    base = dict(
        disk_reads=100,
        server_to_client=120,
        rpcs=120,
        rpc_bytes=120 * 4096,
        client_faults=120,
        client_hits=380,
        server_faults=100,
        server_hits=20,
    )
    base.update(overrides)
    return MeterSnapshot(**base)


class TestSchema:
    def test_figure3_classes_present(self):
        schema = build_stats_schema()
        for name in ("Stat", "Query", "Extent", "System", "Association"):
            assert name in schema

    def test_stat_attributes(self):
        schema = build_stats_schema()
        stat = schema.cls("Stat")
        for attr in (
            "numtest", "query", "database", "cluster", "algo", "system",
            "CCPagefaults", "ElapsedTime", "RPCsnumber", "RPCstotalsize",
            "D2SCreadpages", "SC2CCreadpages", "CCMissrate", "SCMissrate",
        ):
            assert stat.has_attribute(attr)


class TestMeterSnapshot:
    def test_miss_rates(self):
        snap = snapshot()
        assert snap.client_miss_rate == pytest.approx(0.24)
        assert snap.server_miss_rate == pytest.approx(100 / 120)

    def test_subtraction(self):
        a = snapshot(disk_reads=100)
        b = snapshot(disk_reads=40)
        assert (a - b).disk_reads == 60

    def test_counterset_snapshot(self):
        counters = CounterSet()
        counters.disk_reads = 7
        snap = counters.snapshot()
        assert snap.disk_reads == 7
        counters.reset()
        assert counters.disk_reads == 0


class TestStatsDatabase:
    def test_record_and_read_back(self):
        stats = StatsDatabase()
        stats.record_experiment(
            algo="PHJ",
            cluster="class",
            elapsed_s=89.83,
            meters=snapshot(),
            text="select ...",
            selectivity=10,
            selectivity_parents=10,
        )
        rows = stats.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row.algo == "PHJ"
        assert row.cluster == "class"
        assert row.elapsed_s == pytest.approx(89.83)
        assert row.d2sc_pages == 100
        assert row.cc_missrate == 24
        assert row.cold

    def test_filtering(self):
        stats = StatsDatabase()
        for algo, sel in (("PHJ", 10), ("CHJ", 10), ("PHJ", 90)):
            stats.record_experiment(
                algo=algo,
                cluster="class",
                elapsed_s=1.0,
                meters=snapshot(),
                selectivity=sel,
            )
        assert len(stats.rows(algo="PHJ")) == 2
        assert len(stats.rows(selectivity=10)) == 2
        assert len(stats.rows(algo="PHJ", selectivity=90)) == 1
        assert len(stats.rows(cluster="composition")) == 0

    def test_best_algorithm(self):
        stats = StatsDatabase()
        for algo, seconds in (("PHJ", 89.8), ("CHJ", 101.0), ("NL", 1418.0)):
            stats.record_experiment(
                algo=algo,
                cluster="class",
                elapsed_s=seconds,
                meters=snapshot(),
                selectivity=10,
                selectivity_parents=10,
            )
        best = stats.best_algorithm("class", 10, 10)
        assert best is not None and best.algo == "PHJ"
        assert stats.best_algorithm("random", 10, 10) is None

    def test_numtest_increments(self):
        stats = StatsDatabase()
        stats.record_experiment("A", "c", 1.0, snapshot())
        stats.record_experiment("B", "c", 2.0, snapshot())
        assert [r.numtest for r in stats.rows()] == [1, 2]

    def test_many_stats_persist_across_cold_restart(self):
        stats = StatsDatabase()
        for i in range(50):
            stats.record_experiment("A", "c", float(i), snapshot())
        stats.db.restart_cold()
        assert len(stats.rows()) == 50

    def test_record_extent(self):
        stats = StatsDatabase()
        rid = stats.record("Extent", {"classname": "Patient", "size": 2_000_000})
        record, class_def = stats.db.manager.read_record(rid)
        decoded = stats.db.manager.codec(class_def).decode(record)
        assert decoded["classname"] == "Patient"
        assert decoded["size"] == 2_000_000

    def test_objects_give_back_what_record_wrote_in_order(self):
        """One writer, one reader: ``objects`` decodes a class's extent
        in recording order, refs as rids and sets as lists of rids, and
        other classes' objects stay out of it."""
        stats = StatsDatabase()
        written = [
            {"classname": f"C{i}", "size": i * 7, "associations": []}
            for i in range(CHUNK_RIDS + 5)   # spans a flushed extent chunk
        ]
        rids = [stats.record("Extent", values) for values in written]
        links = [stats.record("Association", {"extent": rid, "linkratio": 3})
                 for rid in rids[:2]]
        stats.record("Extent", {"classname": "Owner", "size": 1,
                                "associations": links})
        stats.db.restart_cold()
        extents = stats.objects("Extent")
        assert extents[:-1] == written
        assert extents[-1]["associations"] == links
        assert [stats.decode(rid)["extent"] for rid in links] == rids[:2]
        assert [a["linkratio"] for a in stats.objects("Association")] == [3, 3]
        assert stats.objects("System") == []

    def test_selectivity_parents_is_read_from_the_query_record(self):
        stats = StatsDatabase()
        for parents in (10, 90):
            stats.record_experiment("PHJ", "class", 1.0, snapshot(),
                                    selectivity=10, selectivity_parents=parents)
        stats.db.restart_cold()
        assert [r.selectivity_parents for r in stats.rows()] == [10, 90]
        assert [q["selectivityparents"] for q in stats.objects("Query")] == [10, 90]
        assert stats.best_algorithm("class", 10, 90).numtest == 2


class TestExport:
    def make_rows(self):
        stats = StatsDatabase()
        for algo, sel, seconds in (
            ("PHJ", 10, 89.8),
            ("PHJ", 90, 925.0),
            ("NL", 10, 1418.0),
        ):
            stats.record_experiment(
                algo=algo, cluster="class", elapsed_s=seconds,
                meters=snapshot(), selectivity=sel,
            )
        return stats.rows()

    def test_csv(self):
        csv = to_csv(self.make_rows())
        lines = csv.strip().splitlines()
        assert lines[0].startswith("numtest,algo,cluster")
        assert len(lines) == 4
        assert "PHJ" in lines[1]

    def test_records_to_csv_takes_its_columns_from_the_row_class(self):
        """One generic exporter for every benchmark's dataclass rows:
        header = the fields in declaration order minus ``exclude``,
        floats at four decimals, everything else ``str()``."""
        from dataclasses import dataclass

        @dataclass
        class Row:
            label: str
            shard: int
            note: str
            busy_s: float
            ok: bool

        rows = [Row("mix-sync", i, "unexported", 0.25 * (i + 1), i == 0)
                for i in range(2)]
        text = records_to_csv(Row, rows, exclude=("note",))
        assert text.splitlines() == [
            "label,shard,busy_s,ok",
            "mix-sync,0,0.2500,True",
            "mix-sync,1,0.5000,False",
        ]
        assert records_to_csv(Row, []) == "label,shard,note,busy_s,ok\n"

    def test_gnuplot(self):
        dat = to_gnuplot(self.make_rows())
        assert "# series: NL" in dat
        assert "# series: PHJ" in dat
        # PHJ block has two points sorted by selectivity.
        phj_block = dat.split("# series: PHJ\n")[1].split("\n\n")[0]
        xs = [float(line.split()[0]) for line in phj_block.strip().splitlines()]
        assert xs == sorted(xs)
