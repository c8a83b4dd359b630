"""simlint: fixtures trigger each rule, suppressions work,
and — the point of the whole exercise — ``src/repro`` is clean under the
shipped configuration."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import Finding, LintConfig, lint_paths, load_config
from repro.lint.cli import main as lint_main
from repro.lint.config import config_from_mapping

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str, select: tuple[str, ...]) -> list[Finding]:
    config = LintConfig(select=select)
    return lint_paths((str(FIXTURES / name),), config).findings


# -- one known violation per rule ------------------------------------------


def test_det_flags_wall_clock():
    findings = lint_fixture("det_wallclock.py", ("DET",))
    assert [f.rule for f in findings] == ["DET"]
    assert findings[0].line == 7
    assert "SimClock" in findings[0].message


def test_det_flags_set_iteration():
    findings = lint_fixture("det_setorder.py", ("DET",))
    assert [f.rule for f in findings] == ["DET"]
    assert findings[0].line == 6
    assert "sorted()" in findings[0].message


def test_det_flags_a_collector_switch_outside_the_host_module():
    findings = lint_fixture("det_collector.py", ("DET",))
    assert [f.rule for f in findings] == ["DET"]
    assert findings[0].line == 8
    assert "repro.simtime.host" in findings[0].message


def test_det_lets_the_host_module_switch_the_collector():
    assert lint_fixture("repro/simtime/host.py", ("DET",)) == []


def test_pair_flags_unguarded_release():
    findings = lint_fixture("pair_leak.py", ("PAIR",))
    assert [f.rule for f in findings] == ["PAIR"]
    assert findings[0].line == 5
    assert "try/finally" in findings[0].message
    assert findings[0].symbol.endswith("read_attr")  # not read_attr_safely


def test_exc_flags_swallowing_broad_except():
    findings = lint_fixture("exc_swallow.py", ("EXC",))
    assert [f.rule for f in findings] == ["EXC"]
    assert findings[0].line == 7  # the re-raising handler is not flagged


def test_charge_flags_uncharged_page_touch():
    findings = lint_fixture("repro/storage/uncharged_read.py", ("CHARGE",))
    assert [f.rule for f in findings] == ["CHARGE"]
    assert "uncharged_read" in findings[0].message
    # charged_read reaches charge_ms; _private_helper is out of scope
    assert len(findings) == 1


def test_layer_flags_upward_import():
    findings = lint_fixture("repro/storage/imports_upward.py", ("LAYER",))
    assert [f.rule for f in findings] == ["LAYER"]
    assert "'storage'" in findings[0].message
    assert "'exec'" in findings[0].message


def test_clean_fixture_is_clean():
    assert (
        lint_fixture(
            "clean.py",
            ("DET", "CHARGE", "LAYER", "PAIR", "EXC", "ATOM", "PROTO", "ESCAPE"),
        )
        == []
    )


# -- interprocedural rules: ATOM / PROTO / ESCAPE ---------------------------


def test_atom_flags_cross_yield_rmw():
    findings = lint_fixture("atom", ("ATOM",))
    assert {f.rule for f in findings} == {"ATOM"}
    bad = [f for f in findings if f.path.endswith("rmw_bad.py")]
    # the seeded lost update, the stale check-then-append, the yielding
    # augmented assignment — and nothing in the bracketed counterparts
    assert [f.line for f in bad] == [8, 20, 23]
    assert not any(f.path.endswith("rmw_good.py") for f in findings)
    assert "yield_point" in bad[0].message
    assert "may-yield" in bad[1].message


def test_proto_flags_txn_lifecycle():
    findings = lint_fixture("proto/txn_bad.py", ("PROTO",))
    assert {f.rule for f in findings} == {"PROTO"}
    assert [f.line for f in findings] == [5, 11, 20, 28]
    assert "still open" in findings[0].message      # branch leak
    assert "still open" in findings[1].message      # loop fall-through leak
    assert "can raise" in findings[2].message       # unprotected hazard
    assert "exactly once" in findings[3].message    # double completion


def test_proto_txn_good_is_clean():
    assert lint_fixture("proto/txn_good.py", ("PROTO",)) == []


def test_proto_flags_si_snapshot_leaks():
    findings = lint_fixture("proto/si_bad.py", ("PROTO",))
    assert {f.rule for f in findings} == {"PROTO"}
    assert [f.line for f in findings] == [5, 11]
    for f in findings:
        assert f.message.startswith('begin(isolation="si")')
        assert "pins the MVCC GC horizon" in f.message


def test_proto_si_good_is_clean():
    assert lint_fixture("proto/si_good.py", ("PROTO",)) == []


def test_proto_flags_wal_force_rule():
    findings = lint_fixture("proto/wal_bad.py", ("PROTO",))
    assert [f.line for f in findings] == [5, 11]
    assert "flush" in findings[0].message
    assert "release" in findings[1].message


def test_proto_wal_good_is_clean():
    assert lint_fixture("proto/wal_good.py", ("PROTO",)) == []


def test_proto_flags_missing_decision_log():
    findings = lint_fixture("proto/twopc_bad.py", ("PROTO",))
    assert [f.line for f in findings] == [8, 13, 17]
    assert "decision" in findings[0].message        # direct branch commit
    assert "decision" in findings[1].message        # commit handed out as callback
    assert "resolve_in_doubt" in findings[2].message


def test_proto_twopc_good_is_clean():
    assert lint_fixture("proto/twopc_good.py", ("PROTO",)) == []


def test_proto_flags_unfenced_promotion():
    findings = lint_fixture("proto/failover_bad.py", ("PROTO",))
    assert {f.rule for f in findings} == {"PROTO"}
    assert [f.line for f in findings] == [5, 10, 14]
    assert "no durable epoch fence" in findings[0].message
    assert "never flushed" in findings[1].message
    assert "no durable epoch fence" in findings[2].message


def test_proto_failover_good_is_clean():
    assert lint_fixture("proto/failover_good.py", ("PROTO",)) == []


def test_escape_flags_leaking_handles():
    findings = lint_fixture("escape/escape_bad.py", ("ESCAPE",))
    assert {f.rule for f in findings} == {"ESCAPE"}
    assert [f.line for f in findings] == [6, 12, 18, 24, 30]
    assert "returned" in findings[0].message
    assert "yielded" in findings[1].message
    assert "longer-lived state" in findings[2].message
    assert "append()" in findings[3].message
    assert "after its with block" in findings[4].message


def test_escape_good_is_clean():
    assert lint_fixture("escape/escape_good.py", ("ESCAPE",)) == []


def test_escape_flags_a_yield_inside_the_bracket(tmp_path):
    """In a measured package a generator may not suspend inside a
    ``borrow`` bracket, whatever it yields; elsewhere only a yielded
    *handle* is an escape."""
    bad = "escape/repro/exec/yield_in_bracket_bad.py"
    findings = lint_fixture(bad, ("ESCAPE",))
    assert [f.line for f in findings] == [8, 14]
    assert all("yield inside the borrow bracket" in f.message for f in findings)
    assert lint_fixture(
        "escape/repro/exec/yield_in_bracket_good.py", ("ESCAPE",)
    ) == []
    unmeasured = tmp_path / "repro" / "service" / "rows.py"
    unmeasured.parent.mkdir(parents=True)
    unmeasured.write_text((FIXTURES / bad).read_text())
    assert lint_paths(
        (str(unmeasured),), LintConfig(select=("ESCAPE",))
    ).findings == []


# -- seeded bugs in copies of the real read path ---------------------------


def lint_seeded(tmp_path, source: str, old: str, new: str, rule: str):
    """Findings of ``rule`` on a copy of ``src/repro/<source>`` -- kept
    at the same place under a ``repro`` package, which is what names its
    layer -- with ``old`` replaced by ``new``."""
    text = (REPO_ROOT / "src" / "repro" / source).read_text()
    assert text.count(old) == 1, f"{source} no longer has {old!r}"
    copy = tmp_path / "repro" / source
    copy.parent.mkdir(parents=True)
    copy.write_text(text.replace(old, new))
    return lint_paths((str(copy),), LintConfig(select=(rule,))).findings


REFERENCE_CHARGE = "        self._buckets[Bucket.HANDLE] += self._touch_s\n        return handle"
FETCH_BRACKET = (
    "                    with borrow(rid) as handle:\n"
    "                        row = row_fn(om, handle)\n"
)


def test_charge_is_discharged_by_an_in_place_bucket_add(tmp_path):
    """``HandleTable.reference`` touches ``_live`` and bumps no counter:
    its add into the clock's bucket map is all that charges it."""
    source = "objects/handle.py"
    intact = lint_seeded(
        tmp_path / "intact", source, REFERENCE_CHARGE, REFERENCE_CHARGE,
        "CHARGE",
    )
    assert intact == []
    seeded = lint_seeded(
        tmp_path / "seeded", source, REFERENCE_CHARGE, "        return handle",
        "CHARGE",
    )
    assert [f.symbol for f in seeded] == [
        "repro.objects.handle:HandleTable.reference"
    ]


def test_pair_flags_a_load_an_operator_never_unrefs(tmp_path):
    """``Fetch._next`` with its bracket replaced by a bare ``load``: the
    handle goes nowhere, so nobody else can be the one to release it."""
    source = "exec/operators/scans.py"
    assert lint_seeded(
        tmp_path / "intact", source, FETCH_BRACKET, FETCH_BRACKET, "PAIR"
    ) == []
    seeded = lint_seeded(
        tmp_path / "seeded", source, FETCH_BRACKET,
        "                    handle = om.load(rid)\n"
        "                    row = row_fn(om, handle)\n",
        "PAIR",
    )
    assert [f.symbol for f in seeded] == ["repro.exec.operators.scans:Fetch._next"]
    assert "never paired with unref()" in seeded[0].message


NOJOIN_YIELD = (
    "                            buckets[Bucket.RESULT] += row_s\n"
    "            if row is not None:\n"
    "                yield row\n"
)


def test_escape_flags_a_join_that_yields_inside_its_bracket(tmp_path):
    """NOJOIN with its ``yield row`` moved one indent in, under the
    child's bracket: the child handle would stay referenced across the
    batch boundary."""
    source = "exec/operators/joins.py"
    assert lint_seeded(
        tmp_path / "intact", source, NOJOIN_YIELD, NOJOIN_YIELD, "ESCAPE"
    ) == []
    seeded = lint_seeded(
        tmp_path / "seeded", source, NOJOIN_YIELD,
        "                            buckets[Bucket.RESULT] += row_s\n"
        "                if row is not None:\n"
        "                    yield row\n",
        "ESCAPE",
    )
    assert [f.symbol for f in seeded] == [
        "repro.exec.operators.joins:NavigationChildToParent._rows"
    ]
    assert "bracket of `child`" in seeded[0].message


def test_pair_lets_a_kept_handle_go(tmp_path):
    """A bare ``load`` whose handle is stored, returned or entered as
    its own bracket is an ownership transfer, not a leak."""
    src = tmp_path / "repro" / "exec" / "kept.py"
    src.parent.mkdir(parents=True)
    src.write_text(
        "def stored(om, rid, table):\n"
        "    handle = om.load(rid)\n"
        "    table.insert(rid, handle)\n"
        "\n"
        "def returned(om, rid):\n"
        "    handle = om.load(rid)\n"
        "    return handle\n"
        "\n"
        "def bracketed(om, rid):\n"
        "    handle = om.load(rid)\n"
        "    with handle:\n"
        "        return om.get_attr(handle, 'age')\n"
    )
    assert lint_paths((str(src),), LintConfig(select=("PAIR",))).findings == []


def test_callgraph_may_yield_closure(tmp_path):
    src = tmp_path / "chain.py"
    src.write_text(
        "def leaf(sched):\n"
        "    sched.yield_point()\n"
        "\n"
        "def middle(sched):\n"
        "    leaf(sched)\n"
        "\n"
        "def top(sched):\n"
        "    middle(sched)\n"
        "\n"
        "def pure(x):\n"
        "    return x + 1\n"
    )
    result = lint_paths((str(src),), LintConfig(select=("ATOM",)))
    graph = result.project.callgraph
    funcs = {info.qualname: info for info in result.project.functions}
    assert graph.may_yield(funcs["leaf"])
    assert graph.may_yield(funcs["top"])  # transitive, two hops
    assert not graph.may_yield(funcs["pure"])
    chain = graph.yield_chain(funcs["top"])
    assert "middle" in chain and "yield_point" in chain
    dot = graph.to_dot()
    assert "digraph" in dot
    assert "may-yield" in dot


# -- suppressions -----------------------------------------------------------


def test_suppression_on_line_and_line_above():
    config = LintConfig(select=("DET",))
    result = lint_paths((str(FIXTURES / "suppressed_det.py"),), config)
    assert result.findings == []
    assert result.suppressed == 2
    assert [f.rule for f in result.suppressed_findings] == ["DET", "DET"]


def test_suppression_is_rule_specific(tmp_path):
    source = FIXTURES.joinpath("det_wallclock.py").read_text()
    bad = tmp_path / "wrong_rule.py"
    bad.write_text(source.replace("# the violation", "# simlint: ok[PAIR] wrong rule"))
    config = LintConfig(select=("DET",))
    result = lint_paths((str(bad),), config)
    assert [f.rule for f in result.findings] == ["DET"]


def test_wildcard_suppression(tmp_path):
    source = FIXTURES.joinpath("det_wallclock.py").read_text()
    bad = tmp_path / "wildcard.py"
    bad.write_text(source.replace("# the violation", "# simlint: ok[*] anything goes"))
    config = LintConfig(select=("DET",))
    assert lint_paths((str(bad),), config).findings == []


# -- configuration ----------------------------------------------------------


def test_config_from_mapping_overrides():
    config = config_from_mapping(
        {
            "paths": ["src/other"],
            "select": ["DET"],
            "layer_allow": {"storage": ["exec"]},
            "pair_pairs": [["open", "close"]],
        },
        root="/somewhere",
    )
    assert config.paths == ("src/other",)
    assert config.select == ("DET",)
    assert config.layer_allow == {"storage": ("exec",)}
    assert config.pair_pairs == (("open", "close"),)
    assert config.root == "/somewhere"


def test_layer_allow_grants_upward_edge():
    config = LintConfig(select=("LAYER",), layer_allow={"storage": ("exec",)})
    findings = lint_paths(
        (str(FIXTURES / "repro/storage/imports_upward.py"),), config
    ).findings
    assert findings == []


# -- command line -----------------------------------------------------------


def test_cli_exits_nonzero_on_fixtures(capsys):
    code = lint_main(["--no-config", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in (
        "DET", "CHARGE", "LAYER", "PAIR", "EXC", "ATOM", "PROTO", "ESCAPE"
    ):
        assert rule in out


def test_cli_exits_zero_on_clean_file(capsys):
    assert lint_main(["--no-config", str(FIXTURES / "clean.py")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_json_format(capsys):
    code = lint_main(
        ["--no-config", "--format", "json", str(FIXTURES / "det_wallclock.py")]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET"]
    assert payload["findings"][0]["symbol"]


def test_cli_timing_reports_per_rule(capsys):
    code = lint_main(["--no-config", "--timing", str(FIXTURES / "clean.py")])
    assert code == 0
    err = capsys.readouterr().err
    assert "simlint: timing" in err
    for name in ("parse", "callgraph", "ATOM", "PROTO", "ESCAPE", "total"):
        assert name in err


def test_cli_dump_graph(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code = lint_main(
        ["--no-config", "--dump-graph", str(dot), str(FIXTURES / "atom")]
    )
    assert code == 1
    assert f"call graph written to {dot}" in capsys.readouterr().err
    text = dot.read_text()
    assert "digraph" in text
    assert "may-yield" in text
    assert "lost_update" in text  # calls yield_point() -> in the may-yield set


def test_cli_unknown_rule_is_usage_error(capsys):
    code = lint_main(["--no-config", "--rules", "NOPE", str(FIXTURES / "clean.py")])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_rules_subset(capsys):
    code = lint_main(
        ["--no-config", "--rules", "EXC", str(FIXTURES / "det_wallclock.py")]
    )
    assert code == 0


def test_cli_checked_nothing_is_usage_error(tmp_path, capsys):
    """A gate that checked nothing must not pass: a missing path (a
    renamed package under CI's path-scoped run) and a directory without
    a single Python file both exit 2, not ``0 findings in 0 files``."""
    assert lint_main(["--no-config", str(tmp_path / "no" / "such" / "dir")]) == 2
    captured = capsys.readouterr()
    assert "no such file or directory" in captured.err
    assert "0 findings" not in captured.out
    (tmp_path / "notes.txt").write_text("not python\n")
    assert lint_main(["--no-config", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "no Python files" in captured.err
    assert "0 findings" not in captured.out


# -- the meta-test: this repository is clean --------------------------------


def test_src_repro_is_clean_under_shipped_config():
    config = load_config(REPO_ROOT)
    assert config.paths == ("src/repro",)
    result = lint_paths(None, config)
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )
    assert result.files_checked > 90
