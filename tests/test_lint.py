"""simlint: fixtures trigger each rule, suppressions work,
and — the point of the whole exercise — ``src/repro`` is clean."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import repro.lint.vocab as vocab
from repro.cli import main
from repro.lint import Finding, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str, rules: tuple[str, ...]) -> list[Finding]:
    return lint_paths((str(FIXTURES / name),), rules).findings


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


def test_escape_flags_a_row_function_that_answers_its_handle():
    """``ObjectManager.fetch`` keeps what its row function answers after
    the unreference: a handle answered there escapes its bracket."""
    findings = lint_fixture("escape/fetch_bad.py", ("ESCAPE",))
    assert [f.line for f in findings] == [5, 9]
    assert all("row function of fetch()" in f.message for f in findings)


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
    assert lint_paths((str(unmeasured),), ("ESCAPE",)).findings == []


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
    return lint_paths((str(copy),), (rule,)).findings


#: ``ObjectManager.borrow``'s miss branch, then its hit path: a copy
#: without the miss branch is the hit path alone.
BORROW_MISS = """\
        if handle is None:
            record, class_def = self.read_record(rid)
            spare = table._spare
            if spare:
                handle = handles[rid] = spare.pop()
                handle.rid = rid
                handle.record = record
                handle.class_def = class_def
                handle.refcount = 1
            else:
                handle = handles[rid] = Handle(rid, record, class_def, table)
            table.counters.handles_allocated += 1
            table._buckets[_HANDLE] += table._alloc_s
            return handle
"""
HIT_CHARGE = "        table._buckets[_HANDLE] += table._touch_s\n"
FETCH_BRACKET = (
    "                    with self.borrow(rid) as borrowed:\n"
    "                        row = row_fn(self, borrowed)\n"
)


def test_charge_is_discharged_by_an_in_place_bucket_add(tmp_path):
    """``ObjectManager.borrow``'s hit path touches ``_handles`` and bumps
    no counter: its add into the clock's bucket map, keyed by the
    module-level ``_HANDLE``, is all that charges it.  (Linted alone,
    the file's mutations cannot see the storage charges they reach; the
    seed adds exactly the one finding.)"""
    source = "objects/manager.py"
    text = (REPO_ROOT / "src" / "repro" / source).read_text()
    end = "        return handle\n"
    hit = text[text.index(BORROW_MISS) + len(BORROW_MISS):]
    hit = hit[:hit.index(end) + len(end)]
    assert hit.count(HIT_CHARGE) == 1, "borrow's hit path moved"
    intact = lint_seeded(
        tmp_path / "intact", source, BORROW_MISS + hit, hit, "CHARGE"
    )
    seeded = lint_seeded(
        tmp_path / "seeded", source, BORROW_MISS + hit,
        hit.replace(HIT_CHARGE, ""), "CHARGE",
    )
    added = {f.symbol for f in seeded} - {f.symbol for f in intact}
    assert len(seeded) == len(intact) + 1
    assert added == {"repro.objects.manager:ObjectManager.borrow"}


def test_pair_flags_a_load_an_operator_never_unrefs(tmp_path):
    """``ObjectManager.fetch`` with its miss bracket replaced by a bare
    ``load``: the handle goes nowhere, so nobody else can be the one to
    release it."""
    source = "objects/manager.py"
    assert lint_seeded(
        tmp_path / "intact", source, FETCH_BRACKET, FETCH_BRACKET, "PAIR"
    ) == []
    seeded = lint_seeded(
        tmp_path / "seeded", source, FETCH_BRACKET,
        "                    borrowed = self.load(rid)\n"
        "                    row = row_fn(self, borrowed)\n",
        "PAIR",
    )
    assert [f.symbol for f in seeded] == [
        "repro.objects.manager:ObjectManager.fetch"
    ]
    assert "never paired with unref()" in seeded[0].message


#: CHJ's probe of one parent: the parent's bracket closes before its
#: matches are yielded, which may span batches.
CHJ_YIELD = (
    "            with om.borrow(parent_rid) as parent:\n"
    "                parent_value = om.get_attr(parent, q.parent_project)\n"
    "            for child_value in matches:\n"
    "                buckets[_RESULT] += row_s\n"
    "                yield (parent_value, child_value)\n"
)


def test_escape_flags_a_join_that_yields_inside_its_bracket(tmp_path):
    """CHJ with its match loop moved one indent in, under the parent's
    bracket: the parent handle would stay referenced across the batch
    boundary."""
    source = "exec/operators/joins.py"
    assert lint_seeded(
        tmp_path / "intact", source, CHJ_YIELD, CHJ_YIELD, "ESCAPE"
    ) == []
    seeded = lint_seeded(
        tmp_path / "seeded", source, CHJ_YIELD,
        "            with om.borrow(parent_rid) as parent:\n"
        "                parent_value = om.get_attr(parent, q.parent_project)\n"
        "                for child_value in matches:\n"
        "                    buckets[_RESULT] += row_s\n"
        "                    yield (parent_value, child_value)\n",
        "ESCAPE",
    )
    assert [f.symbol for f in seeded] == [
        "repro.exec.operators.joins:HashChildrenJoin._rows"
    ]
    assert "bracket of `parent`" in seeded[0].message


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
    assert lint_paths((str(src),), ("PAIR",)).findings == []


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
    result = lint_paths((str(src),), ("ATOM",))
    graph = result.project.callgraph
    funcs = {info.qualname: info for info in result.project.functions}
    assert graph.yield_chain(funcs["leaf"]) is not None
    assert graph.yield_chain(funcs["top"]) is not None  # transitive, two hops
    assert graph.yield_chain(funcs["pure"]) is None
    chain = graph.yield_chain(funcs["top"])
    assert "middle" in chain and "yield_point" in chain
    dot = graph.to_dot()
    assert "digraph" in dot
    assert "may-yield" in dot


# -- suppressions -----------------------------------------------------------


def test_suppression_on_line_and_line_above():
    result = lint_paths((str(FIXTURES / "suppressed_det.py"),), ("DET",))
    assert result.findings == []
    assert result.suppressed == 2
    assert [f.rule for f in result.suppressed_findings] == ["DET", "DET"]


def test_suppression_is_rule_specific(tmp_path):
    source = FIXTURES.joinpath("det_wallclock.py").read_text()
    bad = tmp_path / "wrong_rule.py"
    bad.write_text(source.replace("# the violation", "# simlint: ok[PAIR] wrong rule"))
    result = lint_paths((str(bad),), ("DET",))
    assert [f.rule for f in result.findings] == ["DET"]


def test_wildcard_suppression(tmp_path):
    source = FIXTURES.joinpath("det_wallclock.py").read_text()
    bad = tmp_path / "wildcard.py"
    bad.write_text(source.replace("# the violation", "# simlint: ok[*] anything goes"))
    assert lint_paths((str(bad),), ("DET",)).findings == []


# -- the vocabulary ---------------------------------------------------------


def test_every_vocab_name_is_read_by_a_rule():
    """Every public name of ``repro.lint.vocab`` is read by another
    module of ``repro.lint``: an entry nothing looks for checks nothing."""
    names = [name for name in vars(vocab) if not name.startswith("_")]
    assert "LAYER_ORDER" in names
    lint_dir = Path(vocab.__file__).parent
    readers = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(lint_dir.rglob("*.py"))
        if path.name != "vocab.py"
    )
    unread = [name for name in names if not re.search(rf"\b{name}\b", readers)]
    assert not unread, f"repro.lint.vocab names no rule reads: {unread}"


def _identifiers(paths) -> set[str]:
    """Names, attributes, defs, parameters and keywords of the code, plus
    string literals that spell an identifier (a bucket name, a WAL record
    kind)."""
    out: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.arg):
                out.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                out.add(node.arg)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                out.add(node.value)
    return out


def test_every_vocab_name_names_something():
    """Every name-valued entry of ``repro.lint.vocab`` (the package
    lists aside) occurs in ``src/repro`` outside ``lint``, or in the
    fixtures: a call, attribute or guard nothing spells checks nothing."""
    src = REPO_ROOT / "src" / "repro"
    code = [p for p in sorted(src.rglob("*.py"))
            if p.relative_to(src).parts[0] != "lint"]
    known = _identifiers([*code, *sorted(FIXTURES.rglob("*.py"))])
    entries = [
        (name, entry)
        for name, value in vars(vocab).items()
        if isinstance(value, tuple) and "PACKAGE" not in name
        and name != "LAYER_ORDER"
        for item in value
        for entry in (item if isinstance(item, tuple) else (item,))
    ]
    assert ("PAIRS", "unref") in entries
    unknown = [(name, entry) for name, entry in entries if entry not in known]
    assert not unknown, f"vocabulary entries that name nothing: {unknown}"


# -- command line -----------------------------------------------------------


def test_cli_exits_nonzero_on_fixtures(capsys):
    code = main(["lint", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in (
        "DET", "CHARGE", "LAYER", "PAIR", "EXC", "ATOM", "PROTO", "ESCAPE"
    ):
        assert rule in out


def test_cli_exits_zero_on_clean_file(capsys):
    assert main(["lint", str(FIXTURES / "clean.py")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_timing_reports_per_rule(capsys):
    code = main(["lint", "--timing", str(FIXTURES / "clean.py")])
    assert code == 0
    err = capsys.readouterr().err
    assert "simlint: timing" in err
    for name in ("parse", "callgraph", "ATOM", "PROTO", "ESCAPE", "total"):
        assert name in err


def test_cli_dump_graph(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code = main(
        ["lint", "--dump-graph", str(dot), str(FIXTURES / "atom")]
    )
    assert code == 1
    assert f"call graph written to {dot}" in capsys.readouterr().err
    text = dot.read_text()
    assert "digraph" in text
    assert "may-yield" in text
    assert "lost_update" in text  # calls yield_point() -> in the may-yield set


def test_cli_unknown_rule_is_usage_error(capsys):
    code = main(["lint", "--rules", "NOPE", str(FIXTURES / "clean.py")])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_rules_subset(capsys):
    code = main(
        ["lint", "--rules", "EXC", str(FIXTURES / "det_wallclock.py")]
    )
    assert code == 0


def test_cli_checked_nothing_is_usage_error(tmp_path, capsys):
    """A gate that checked nothing must not pass: a missing path (a
    renamed package under CI's path-scoped run) and a directory without
    a single Python file both exit 2, not ``0 findings in 0 files``."""
    assert main(["lint", str(tmp_path / "no" / "such" / "dir")]) == 2
    captured = capsys.readouterr()
    assert "no such file or directory" in captured.err
    assert "0 findings" not in captured.out
    (tmp_path / "notes.txt").write_text("not python\n")
    assert main(["lint", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "no Python files" in captured.err
    assert "0 findings" not in captured.out


def test_lint_runs_from_any_directory(tmp_path):
    """The default path is the package itself, not a path relative to
    the repository root."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 findings" in proc.stdout


# -- the meta-test: this repository is clean --------------------------------


def test_src_repro_is_clean_under_shipped_config():
    result = lint_paths()
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )
    assert result.files_checked > 90
