"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "fig10"])
        assert args.figure == "fig10"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])

    def test_db_options(self):
        args = build_parser().parse_args(
            ["load", "--db", "1to3", "--clustering", "composition",
             "--scale", "0.001"]
        )
        assert args.db == "1to3"
        assert args.clustering == "composition"
        assert args.scale == 0.001


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "page read          : 10.0 ms" in out
        assert "query memory" in out

    def test_figures_fig10(self, capsys):
        assert main(["figures", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "57.60" in out

    def test_load(self, capsys):
        assert main(
            ["load", "--db", "1to3", "--scale", "0.0005"]
        ) == 0
        out = capsys.readouterr().out
        assert "load time" in out
        assert "500 providers" in out

    def test_figures_fig07_small_scale(self, capsys):
        assert main(["figures", "fig07", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_shell_quits(self, capsys, monkeypatch):
        inputs = iter([
            "select count(p) from p in Patients where p.mrn < 100",
            "select bogus syntax here",
            "quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
        assert main(["shell", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "-- plan:" in out
        assert "error:" in out

    def test_shell_eof(self, capsys, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["shell", "--scale", "0.001"]) == 0

    def test_layout(self, capsys):
        assert main(
            ["layout", "--scale", "0.001", "--clustering", "composition",
             "--records", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "Physical organization: composition" in out
        assert "@" in out

    @pytest.mark.parametrize(
        "suite", ["recovery", "service", "2pc", "failover"]
    )
    def test_chaos_suites_pass(self, suite):
        assert main(["chaos", "--suite", suite, "--cases", "2"]) == 0

    def test_chaos_failure_names_the_seed_and_how_to_reproduce(
        self, capsys, monkeypatch
    ):
        from repro.service.chaos import SERVICE

        # The evidence carries no seed: note the seed each execution
        # ran, then break the invariants of seed 5 only.
        execute, seeds = SERVICE.execute, []

        def noting(seed):
            seeds.append(seed)
            return execute(seed)

        def broken(evidence):
            return ["seeded bug"] if seeds[-1] == 5 else []

        monkeypatch.setattr(SERVICE, "execute", noting)
        monkeypatch.setattr(
            SERVICE, "invariants", [*SERVICE.invariants, broken]
        )
        assert main(
            ["chaos", "--suite", "service", "--seed", "4", "--cases", "3"]
        ) == 1
        captured = capsys.readouterr()
        assert "2/3 cases clean" in captured.out
        assert "seed 5: seeded bug" in captured.err
        assert (
            "python -m repro chaos --suite service --seed 5 --cases 1"
            in captured.err
        )
        assert "--seed 4" not in captured.err

    def test_chaos_that_checked_nothing_is_a_usage_error(self, capsys):
        """``--cases 0`` used to print ``0/0 cases clean`` and exit 0."""
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--suite", "service", "--cases", "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--cases: expected a positive int" in captured.err
        assert "cases clean" not in captured.out

    def test_old_chaos_entries_are_gone(self):
        # ``crash demo`` repeated examples/crash_recovery.py,
        # ``calibrate`` repeated benchmarks/bench_cost_model_validation.py,
        # no gate ran ``serve`` or ``lint --format``, and the shell's
        # one planner widens on ``analyze`` whatever ``--optimizer`` said;
        # the failover suite runs both ship modes as its variants.
        for argv in (["crash", "fuzz"], ["shard", "chaos"],
                     ["failover", "chaos"], ["chaos"], ["crash", "demo"],
                     ["calibrate"], ["serve"], ["lint", "--format", "json"],
                     ["shell", "--optimizer", "cost"],
                     ["chaos", "--suite", "failover", "--ship-mode", "async"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_analyze(self, capsys):
        assert main(["analyze", "--db", "1to3", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "analyzed Patients" in out
        assert "analyzed Providers.clients" in out
        assert "simulated s" in out
        assert "persisted" in out

    def test_analyze_named_collection(self, capsys):
        assert main(
            ["analyze", "--db", "1to3", "--scale", "0.001", "Providers"]
        ) == 0
        out = capsys.readouterr().out
        assert "analyzed Providers" in out
        assert "analyzed Patients" not in out

    def test_analyze_unknown_collection(self, capsys):
        assert main(
            ["analyze", "--db", "1to3", "--scale", "0.001", "Bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("argv, message", [
        (["mix", "--clients", "0"], "at least one client"),
        (["shard", "demo", "--clients", "0"], "at least one client"),
        (["failover", "demo", "--clients", "0"], "at least one client"),
        (["failover", "demo", "--shards", "0"], "at least one shard"),
    ])
    def test_a_repro_error_is_a_message_and_exit_2(
        self, capsys, argv, message
    ):
        """One handler in ``main()``: no command dies with a traceback
        on input the library itself rejects."""
        assert main(argv + ["--db", "1to3", "--scale", "0.00001"]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and message in last

    @pytest.mark.parametrize("argv, message", [
        (["load", "--scale", "0"], "--scale: expected a positive float"),
        (["load", "--scale", "-1"], "--scale: expected a positive float"),
        (["figures", "fig10", "--scale", "0"],
         "--scale: expected a positive float"),
        (["shard", "demo", "--replicas", "2"], "--replicas: invalid choice"),
    ])
    def test_outside_input_is_a_usage_error_not_a_traceback(
        self, capsys, argv, message
    ):
        """Values the library would reject with a bare ``ValueError``
        (a scale that is not positive, a second standby) stop in the
        parser: a message on stderr and exit 2."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_shard_demo_has_one_strategy(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "demo", "--strategy", "data"])
        capsys.readouterr()
        assert main(
            ["shard", "demo", "--shards", "2", "--db", "1to3",
             "--scale", "0.00001", "--clients", "2", "--ops", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "  query-ship rows merge\n" in out
        assert "Sharded mix (2 shards): 1 scanner(s) + 1 updater(s)" in out

    def test_shell_cost_optimizer(self, capsys, monkeypatch):
        """The shell's one planner searches every access path once the
        user types ``analyze``."""
        explain = "explain select count(p) from p in Patients where p.num < 500"
        inputs = iter([explain, "analyze", explain, "quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
        assert main(["shell", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        before, after = out.split("analyzed Patients")
        assert "  index  " in before and "index-only" not in before
        assert "  index-only(num)  " in after and "<- chosen" in after
