"""The census as a table the machine keeps (ROADMAP item 7).

Two counts, no allow-list: a CLI flag nothing spells is a knob nothing
sets, and a name nothing mentions is dead.  Either goes, or gains the
caller, the doc line or the test that justifies it.
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
