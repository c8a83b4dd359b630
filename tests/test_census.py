"""The census as a table the machine keeps (ROADMAP item 7).

Four counts, no allow-list: a CLI flag nothing spells is a knob nothing
sets, a name nothing mentions is dead, a name only tests use serves no
workload, and a default no call changes is a constant.  Each goes, or
gains the caller, the doc line or the test that justifies it.
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


SOURCES = sorted((ROOT / "src/repro").rglob("*.py"))
CODE = [p for d in ("benchmarks", "examples")
        for p in sorted((ROOT / d).rglob("*.py"))]


def _hooked(name: str) -> bool:
    """Dunders and ``ast.NodeVisitor`` ``visit_*`` hooks, which the
    interpreter or ``ast`` call by name."""
    return name.startswith("__") and name.endswith("__") or name.startswith("visit_")


def _defined() -> Counter[str]:
    """Functions, classes and methods under ``src/repro``, hooks aside,
    by how often each name is defined."""
    defined: Counter[str] = Counter()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not _hooked(node.name)):
                defined[node.name] += 1
    return defined


def _methods() -> set[str]:
    """The functions defined directly in a class body under
    ``src/repro``, hooks aside."""
    return {
        item.name
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _hooked(item.name)
    }


def _uses(paths) -> tuple[Counter[str], Counter[str]]:
    """The identifiers the code in ``paths`` uses, as two counts: bare
    names, and reads -- attributes, the words of string literals
    (``getattr`` targets, vocabulary tables) and the names a class body
    binds to another (``visit_ListComp = _visit_comprehension``).  A
    comment, a docstring, an import or an ``__all__`` entry mentions a
    name without using it."""
    names: Counter[str] = Counter()
    reads: Counter[str] = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions: set[int] = set()
        aliases: set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and node.body and isinstance(node.body[0], ast.Expr)
                    and isinstance(node.body[0].value, ast.Constant)):
                mentions.add(id(node.body[0].value))
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                mentions.update(id(n) for n in ast.walk(node))
            if isinstance(node, ast.ClassDef):
                aliases.update(id(item.value) for item in node.body
                               if isinstance(item, ast.Assign)
                               and isinstance(item.value, ast.Name))
        for node in ast.walk(tree):
            if id(node) in mentions:
                continue
            if isinstance(node, ast.Name):
                (reads if id(node) in aliases else names)[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names, reads


def test_every_name_defined_in_src_is_referenced():
    """Each name occurs somewhere besides its own ``def``."""
    mentions = Counter(
        re.findall(r"[A-Za-z_]\w*", _text([*SOURCES, *TESTS, *CODE, *DOCS]))
    )
    dead = sorted(
        name for name, n_defs in _defined().items() if mentions[name] <= n_defs
    )
    assert not dead, f"defined under src/repro, referenced nowhere: {dead}"


def test_every_name_defined_in_src_is_used_outside_tests():
    """... and code in ``src``, ``benchmarks`` or ``examples`` uses it: a
    name only tests use serves no workload, so it goes, or moves into the
    test that uses it."""
    names, reads = _uses([*SOURCES, *CODE])
    dead = sorted(name for name in _defined() if not (names[name] or reads[name]))
    assert not dead, f"defined under src/repro, used only by tests: {dead}"


def test_every_method_is_read_outside_tests():
    """A method is used only where code in ``src``, ``benchmarks`` or
    ``examples`` reads it (``x.name``), spells it in a string or aliases
    it in a class body.  A local variable, parameter or function of the
    same name (``hi``, ``live_rows``) does not call it."""
    __, reads = _uses([*SOURCES, *CODE])
    unread = sorted(name for name in _methods() if not reads[name])
    assert not unread, f"methods under src/repro no code outside tests reads: {unread}"


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


def _constructors(tree: ast.Module) -> dict[int, str]:
    """The class each ``__init__`` in ``tree`` constructs, by ``id``."""
    return {
        id(item): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    }


def test_every_default_is_overridden_somewhere():
    """Every defaulted parameter of a ``def`` under ``src/repro`` (the
    other dunders aside) is passed, by position or by keyword, at some
    call of that name in ``src``, ``benchmarks``, ``examples`` or
    ``tests``.  An ``__init__``'s calls are those of its class, of any
    subclass and a subclass's ``super().__init__``.  A call through
    ``*``/``**``, or the function or class handed on as a value
    (``partial(f, ...)``, ``Suite(execute=f)``), overrides every
    parameter.  A default no caller changes is a constant with a knob
    on it."""
    calls: dict[str, list[ast.Call]] = {}
    passed_on: set[str] = set()
    subclasses: dict[str, set[str]] = {}
    for path in [*SOURCES, *CODE, *TESTS, Path(__file__)]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    subclasses.setdefault(_callee(base), set()).add(node.name)
                # ``super().__init__(...)`` calls each base's constructor.
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "__init__"
                            and isinstance(call.func.value, ast.Call)
                            and _callee(call.func.value.func) == "super"):
                        for base in node.bases:
                            calls.setdefault(_callee(base), []).append(call)
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name is not None and name != "__init__":
                calls.setdefault(name, []).append(node)
            passed_on.update(
                _callee(arg) for arg in [*node.args, *(k.value for k in node.keywords)]
            )

    def family(name: str) -> set[str]:
        """``name`` and every class below it."""
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.add(cls)
                todo += subclasses.get(cls, ())
        return seen

    def overridden(name: str, bound: int, position, param: str) -> bool:
        for call in calls.get(name, []):
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(k.arg in (None, param) for k in call.keywords)):
                return True
            if position is not None and bound + len(call.args) > position:
                return True
        return False

    fixed = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constructors = _constructors(tree)
        for fn, bound in _defs_with_bound_arg(tree):
            names = family(constructors[id(fn)]) if id(fn) in constructors else {fn.name}
            if (fn.name.startswith("__") and fn.name.endswith("__")
                    and id(fn) not in constructors) or names & passed_on:
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
                if not any(overridden(name, bound, position, param) for name in names)
            ]
    assert not fixed, f"defaults no caller overrides: {fixed}"
