"""The census as a table the machine keeps (ROADMAP item 7).

Three counts, no allow-list: a CLI flag nothing spells is a knob nothing
sets, a name nothing mentions is dead, and a default no call changes is
a constant.  Each goes, or gains the caller, the doc line or the test
that justifies it.
"""

from __future__ import annotations

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
TESTS = [p for p in sorted((ROOT / "tests").rglob("*.py"))
         if p != Path(__file__).resolve()]


def _text(paths) -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in paths if p.is_file())


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    out: set[str] = set()
    for action in parser._actions:
        out.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                out |= _flags(child)
    return out - {"--help"}


def test_every_cli_flag_is_set_somewhere():
    """Makefile, CI, a doc, the verify skill or a test spells it."""
    setters = _text([ROOT / "Makefile", ROOT / ".github/workflows/ci.yml",
                     ROOT / ".claude/skills/verify/SKILL.md", *DOCS, *TESTS])
    unset = sorted(
        flag for flag in _flags(build_parser())
        if not re.search(rf"(?<![\w-]){flag}(?![\w-])", setters)
    )
    assert not unset, f"CLI flags nothing sets: {unset}"


def test_every_name_defined_in_src_is_referenced():
    """Functions, classes and methods under ``src/repro`` (dunders and
    ``ast.NodeVisitor`` ``visit_*`` hooks aside) occur somewhere besides
    their own ``def``."""
    sources = sorted((ROOT / "src/repro").rglob("*.py"))
    defined: Counter[str] = Counter()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] += 1
    code = [p for d in ("benchmarks", "examples")
            for p in sorted((ROOT / d).rglob("*.py"))]
    mentions = Counter(
        re.findall(r"[A-Za-z_]\w*", _text([*sources, *TESTS, *code, *DOCS]))
    )
    dead = sorted(
        name for name, n_defs in defined.items()
        if mentions[name] <= n_defs
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("visit_")
    )
    assert not dead, f"defined under src/repro, referenced nowhere: {dead}"


def _callee(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defs_with_bound_arg(tree: ast.Module):
    """Every ``def`` with the number of leading parameters a call does
    not spell: one (``self``/``cls``) for a method, none otherwise."""
    methods = {
        id(item): not any(_callee(d) == "staticmethod" for d in item.decorator_list)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, int(methods.get(id(node), False))


def test_every_default_is_overridden_somewhere():
    """Every defaulted parameter of a ``def`` under ``src/repro``
    (``__init__`` and other dunders aside) is passed, by position or by
    keyword, at some call of that name in ``src``, ``benchmarks``,
    ``examples`` or ``tests``.  A call through ``*``/``**``, or the
    function handed on as a value (``partial(f, ...)``,
    ``Suite(execute=f)``), overrides every parameter.  A default no
    caller changes is a constant with a knob on it."""
    sources = sorted((ROOT / "src/repro").rglob("*.py"))
    code = [p for d in ("benchmarks", "examples", "tests")
            for p in sorted((ROOT / d).rglob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    passed_on: set[str] = set()
    for path in [*sources, *code]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name is not None:
                calls.setdefault(name, []).append(node)
            passed_on.update(
                _callee(arg) for arg in [*node.args, *(k.value for k in node.keywords)]
            )

    def overridden(fn: ast.FunctionDef, bound: int, position, param: str) -> bool:
        for call in calls.get(fn.name, []):
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(k.arg in (None, param) for k in call.keywords)):
                return True
            if position is not None and bound + len(call.args) > position:
                return True
        return False

    fixed = []
    for path in sources:
        for fn, bound in _defs_with_bound_arg(ast.parse(path.read_text(encoding="utf-8"))):
            if fn.name.startswith("__") and fn.name.endswith("__") or fn.name in passed_on:
                continue
            args = fn.args
            positional = [*args.posonlyargs, *args.args]
            first_default = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first_default]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            fixed += [
                f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({param}=)"
                for position, param in defaulted
                if not overridden(fn, bound, position, param)
            ]
    assert not fixed, f"defaults no caller overrides: {fixed}"
