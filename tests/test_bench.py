"""Tests for the benchmark harness: runner, tables, figure builders."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import re
import weakref
from collections import Counter

import pytest

from repro.bench import ExperimentRunner, Table
from repro.bench.figures import (
    FIGURES,
    PAPER_ALGORITHMS,
    FigureDriver,
    cell_times,
    extensions_figure,
    figure4_rids_vs_handles,
    figure6,
    figure7,
    figure9,
    figure10,
    figure15,
    handle_modes_figure,
    join_figure,
    rank_table,
)
from repro.bench.workloads import SELECTIVITY_GRID, tree_query_text
from repro.cli import main
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import DEFAULT_SCALE, Clustering
from repro.errors import BenchError
from repro.simtime import CostParams
from repro.stats import StatsDatabase


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


@pytest.fixture()
def runner(derby):
    return ExperimentRunner(derby)


class TestTable:
    def test_render(self):
        table = Table("T", ["a", "bee"])
        table.add(1, 2.5)
        table.note("a note")
        text = table.render()
        assert "T" in text
        assert "a note" in text
        assert "2.50" in text

    def test_row_arity_checked(self):
        table = Table("T", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)


class TestRunner:
    def test_run_join_measures(self, runner):
        m = runner.run_join("PHJ", 10, 10)
        assert m.algo == "PHJ"
        assert m.elapsed_s > 0
        assert m.rows > 0
        assert m.meters.disk_reads > 0
        assert "io" in m.breakdown

    def test_cold_runs_are_reproducible(self, runner):
        a = runner.run_join("NOJOIN", 10, 90)
        b = runner.run_join("NOJOIN", 10, 90)
        assert a.elapsed_s == pytest.approx(b.elapsed_s)
        assert a.meters.disk_reads == b.meters.disk_reads

    def test_unknown_algorithm(self, runner):
        with pytest.raises(BenchError):
            runner.run_join("ZIGZAG", 10, 10)

    def test_unknown_selection_method(self, runner):
        with pytest.raises(BenchError):
            runner.run_selection("hash", 10)

    def test_selection_measures(self, runner):
        m = runner.run_selection("sorted-index", 30)
        assert m.rows == pytest.approx(270, abs=30)
        assert m.page_reads > 0

    def test_stats_recorded(self, derby):
        stats = StatsDatabase()
        runner = ExperimentRunner(derby, stats)
        runner.run_join("PHJ", 10, 10)
        runner.run_selection("scan", 10)
        rows = stats.rows()
        assert len(rows) == 2
        assert {r.algo for r in rows} == {"PHJ", "select/scan"}

    def test_grid_runs_all(self, runner):
        ms = runner.run_join_grid(("PHJ", "CHJ"), ((10, 10), (90, 90)))
        assert len(ms) == 4


class TestWorkloads:
    def test_tree_query_text(self, derby):
        text = tree_query_text(derby.config, 10, 90)
        assert "pa.mrn <" in text and "p.upin <" in text

    def test_grid_is_the_papers(self):
        assert SELECTIVITY_GRID == ((10, 10), (10, 90), (90, 10), (90, 90))


class TestFigures:
    def test_figure6_shape(self, runner):
        table = figure6(runner)
        assert len(table.rows) == 7
        # No-index page count is selectivity-independent.
        no_index_pages = {row[3] for row in table.rows}
        assert len(no_index_pages) == 1
        # Unclustered index reads more pages than the scan at 90%.
        last = table.rows[-1]
        assert last[1] > last[3]

    def test_figure7_shape(self, runner):
        table = figure7(runner)
        assert len(table.rows) == 4
        # Sorted index scan strictly beats no-index at low selectivity.
        assert table.rows[0][1] < table.rows[0][2]

    def test_figure9_decomposition_sums_to_total(self, runner):
        table = figure9(runner)
        *components, total = table.rows
        for col in (1, 2):
            assert sum(row[col] for row in components) == pytest.approx(
                total[col], rel=0.01
            )
        handles = next(r for r in table.rows if "Handle" in r[0])
        # Even at 90% the standard scan pays more handle traffic...
        assert handles[1] > handles[2]
        # ...and at 10% selectivity the gap is large (the paper's point:
        # handles for the whole collection vs only selected elements).
        low_sel = figure9(runner, selectivity_pct=10)
        handles10 = next(r for r in low_sel.rows if "Handle" in r[0])
        assert handles10[1] > 5 * handles10[2]

    def test_figure10_matches_paper_exactly(self):
        table = figure10()
        sizes = [row[5] for row in table.rows]
        paper = [0.0128, 0.1152, 6.4, 57.6, 1.72, 14.52, 62.4, 81.6]
        for ours, theirs in zip(sizes, paper):
            assert ours == pytest.approx(theirs, rel=0.001)

    def test_join_figure_ranks_each_cell(self, runner):
        table, measurements = join_figure(
            runner, "test", algorithms=("PHJ", "NOJOIN"), grid=((10, 10),)
        )
        assert len(table.rows) == 2
        assert table.rows[0][3] == pytest.approx(1.0)  # best ratio is 1
        assert table.rows[1][4] >= table.rows[0][4]
        assert len(measurements) == 2

    def test_figure15_picks_winners(self, runner):
        __, ms = join_figure(
            runner, "t", algorithms=PAPER_ALGORITHMS, grid=((10, 10),)
        )
        table = figure15({"1:1000": {"class": ms}})
        row = table.rows[0]
        assert row[5] in PAPER_ALGORITHMS      # class winner
        assert row[3] == "-"                   # random org not provided

    def test_figure4_rids_cheaper_than_handles_when_memory_tight(self, runner):
        table = figure4_rids_vs_handles(runner, selectivity_pct=90)
        handles_row, rids_row = table.rows
        assert handles_row[0] == "Handles"
        assert handles_row[2] > rids_row[2]  # bigger table

    def test_handle_modes_ablation(self, runner):
        table = handle_modes_figure(runner, selectivity_pct=60)
        by_mode = {row[0]: row[1] for row in table.rows}
        # Full handles are the most expensive regime for the scan.
        assert by_mode["full"] >= max(v for k, v in by_mode.items() if k != "full")

    def test_extensions_figure_includes_smj_and_hybrid(self, runner):
        table, __ = extensions_figure(runner)
        algos = {row[2] for row in table.rows}
        assert {"SMJ", "PHJ-HYBRID"} <= algos


REPO = pathlib.Path(__file__).resolve().parent.parent
TINY = 0.001


class TestFigureRegistry:
    def test_every_stem_is_committed_and_every_figure_file_has_an_entry(self):
        stems = {figure.stem for figure in FIGURES.values()}
        assert len(stems) == len(FIGURES)
        committed = {p.stem for p in (REPO / "results").glob("*.txt")}
        assert stems <= committed
        assert {s for s in committed if s.startswith("figure")} <= stems

    def test_docs_index_names_exactly_the_registry_figure_files(self):
        text = (REPO / "docs" / "figures.md").read_text()
        documented = set(re.findall(r"^\| `(figure\w+)\.txt`", text, re.M))
        assert documented == {
            f.stem for f in FIGURES.values() if f.stem.startswith("figure")
        }
        assert "`ablation_handle_modes.txt`" in text

    def test_fig04_is_pinned_at_90_percent(self):
        table, __ = FigureDriver(TINY).build("fig04")
        assert "selectivity 90%" in table.title

    def test_databases_are_adjacent_in_registry_order(self):
        seen = [f.database for f in FIGURES.values() if f.database]
        runs = [db for i, db in enumerate(seen) if i == 0 or seen[i - 1] != db]
        assert len(runs) == len(set(runs))


class TestFigureDriver:
    def test_all_figures_load_each_database_once_and_hold_one(self, monkeypatch):
        loaded = []   # (relationship, organization, weakref to its pages)

        def counting_load(config):
            # The database handed out before this one must be gone by now.
            assert all(ref() is None for *__, ref in loaded), loaded
            derby = load_derby(config)
            rel = "1:1000" if config.avg_children > 100 else "1:3"
            loaded.append((rel, config.clustering.value, weakref.ref(derby.db)))
            return derby

        monkeypatch.setattr("repro.bench.figures.load_derby", counting_load)
        driver = FigureDriver(TINY)
        tables = {name: driver.build(name) for name in FIGURES}

        assert [key[:2] for key in loaded] == [
            ("1:1000", "class"), ("1:3", "class"),
            ("1:1000", "composition"), ("1:3", "composition"),
            ("1:1000", "random"), ("1:3", "random"),
        ]
        assert sum(ref() is not None for *__, ref in loaded) == 1

        # Figure 15 is built from the six grids, four of them the very
        # lists Figures 11-14 were ranked from.
        table15, results = tables["fig15"]
        assert {rel: set(by_org) for rel, by_org in results.items()} == {
            rel: {"random", "class", "composition"} for rel in ("1:1000", "1:3")
        }
        assert results["1:3"]["composition"] is tables["fig14"][1]
        assert str(table15) == str(figure15(results))

    def test_fig11_is_rank_table_over_a_grid_run_by_hand(self):
        table, measured = FigureDriver(TINY).build("fig11")
        derby = load_derby(DerbyConfig.db_1to1000(scale=TINY))
        by_hand = ExperimentRunner(derby).run_join_grid(
            PAPER_ALGORITHMS, SELECTIVITY_GRID
        )
        assert measured == by_hand
        assert str(table) == str(
            rank_table(by_hand, "Figure 11 — One file per Class, 1:1000")
        )

    def test_cli_fig15_equals_figure15_over_grids_run_by_hand(self, capsys):
        assert main(["figures", "fig15", "--scale", str(TINY)]) == 0
        by_hand = {
            rel: {
                org.value: ExperimentRunner(
                    load_derby(maker(scale=TINY, clustering=org))
                ).run_join_grid(PAPER_ALGORITHMS, SELECTIVITY_GRID)
                for org in (
                    Clustering.RANDOM, Clustering.CLASS, Clustering.COMPOSITION
                )
            }
            for rel, maker in (
                ("1:1000", DerbyConfig.db_1to1000), ("1:3", DerbyConfig.db_1to3)
            )
        }
        assert capsys.readouterr().out == f"{figure15(by_hand)}\n"

    def test_join_figure_is_the_grid_then_the_ranking(self, runner):
        table, measurements = join_figure(
            runner, "t", algorithms=("PHJ", "NL", "CHJ"), grid=((90, 90), (10, 10))
        )
        # Run order: cell by cell, algorithms in the order given.
        assert [(m.sel_patients, m.algo) for m in measurements] == [
            (90, "PHJ"), (90, "NL"), (90, "CHJ"),
            (10, "PHJ"), (10, "NL"), (10, "CHJ"),
        ]
        for sel in ((90, 90), (10, 10)):
            times = cell_times(measurements, *sel)
            rows = [r for r in table.rows if (r[0], r[1]) == sel]
            assert [r[2] for r in rows] == sorted(times, key=times.get)
            assert [r[4] for r in rows] == sorted(times.values())


BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))
#: The host-clock script: it runs outside pytest and owns its file.
HOST_SCRIPT = "bench_scale.py"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _written(func: str, benches=BENCHES) -> list[str]:
    """The name of every ``func(name, ...)`` call in a bench, once per
    call; a figure's stem resolves through ``FIGURES`` and a
    paper-agreement table through ``bench_paper_agreement``."""
    names = []
    for path in benches:
        tree = _tree(path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.append(arg.value)
            elif path.name == "bench_figures.py":
                names += [figure.stem for figure in FIGURES.values()]
            elif path.name == "bench_paper_agreement.py":
                figs = next(
                    ast.literal_eval(n.value) for n in tree.body
                    if isinstance(n, ast.Assign)
                    and ast.unparse(n.targets[0]) == "_MIN_WINNERS"
                )
                names += [f"paper_agreement_{fig}" for fig in figs]
            else:
                raise AssertionError(
                    f"{path.name}: {func}({ast.unparse(arg)}) names no file"
                )
    return names


class TestOneWriter:
    """One command, ``pytest benchmarks/ --ignore=benchmarks/wallclock``,
    regenerates every committed result, and each from one place."""

    def test_every_committed_result_has_exactly_one_writer(self):
        written = Counter(
            name if name.endswith(".csv") else f"{name}.txt"
            for name in _written("save_table")
        )
        committed = {
            p.name for p in (REPO / "results").iterdir()
            if p.suffix in (".txt", ".csv")
        }
        assert set(written) == committed
        assert [name for name, n in written.items() if n > 1] == []

    def test_every_scale_directory_is_what_the_figure_benches_write(self):
        """``results/scale_<s>/`` holds what ``REPRO_SCALE=<s>`` makes the
        figure and agreement benches write through ``write_table``: each
        file has one writer, and none is left from a table no bench
        writes any more, nor missing one a bench does."""
        written = Counter(
            f"{name}.txt" for name in _written("save_table", [
                REPO / "benchmarks" / "bench_figures.py",
                REPO / "benchmarks" / "bench_paper_agreement.py",
            ])
        )
        assert [name for name, n in written.items() if n > 1] == []
        scales = sorted((REPO / "results").glob("scale_*"))
        assert scales, "no results/scale_*/ is committed"
        for directory in scales:
            scale = float(directory.name.removeprefix("scale_"))
            # a name write_table gives, at a scale it does not write to results/
            assert directory.name == f"scale_{scale:g}" and scale != DEFAULT_SCALE
            committed = {p.name for p in directory.iterdir()}
            assert committed == set(written), directory.name

    def test_every_bench_json_has_exactly_one_writer(self):
        written = Counter(f"BENCH_{name}.json" for name in _written("save_json"))
        committed = {p.name for p in REPO.glob("BENCH_*.json")}
        assert set(written) == committed - {"BENCH_scale.json"}
        assert [name for name, n in written.items() if n > 1] == []

    def test_benches_have_no_script_entry_and_write_only_through_fixtures(self):
        for path in BENCHES:
            if path.name == HOST_SCRIPT:
                continue
            for node in ast.walk(_tree(path)):
                assert not (
                    isinstance(node, ast.FunctionDef) and node.name == "main"
                ), path.name
                assert not (
                    isinstance(node, (ast.Import, ast.ImportFrom))
                    and "argparse" in ast.unparse(node)
                ), path.name
                assert not (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("write_text", "write_bytes", "open")
                    or isinstance(node, ast.Name) and node.id == "open"
                ), f"{path.name} writes a file itself"


class TestSaveTable:
    @pytest.fixture()
    def bench_conftest(self, monkeypatch, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", REPO / "benchmarks" / "conftest.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        return module

    def test_default_scale_writes_results(self, bench_conftest, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        bench_conftest.write_table("t", "text\n")
        assert (tmp_path / "t.txt").read_text() == "text\n"
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        bench_conftest.write_table("u", "text\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt", "u.txt"]

    def test_another_scale_writes_its_own_directory(
        self, bench_conftest, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        bench_conftest.write_table("t", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scale_0.05"]
        assert (tmp_path / "scale_0.05" / "t.txt").read_text() == "text\n"
