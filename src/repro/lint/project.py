"""Parsed view of the code under lint: modules, functions, call graph.

Rules consume two objects:

* :class:`Module` — one parsed file with its dotted name, package (the
  first component under the root package, which names its layer) and
  per-line ``# simlint: ok[RULE]`` suppressions;
* :class:`Project` — every module together, plus a *name-resolved call
  graph*: a call ``x.f(...)`` is resolved to every function named ``f``
  defined anywhere in the project.  That over-approximation can only
  make charge-reachability easier to satisfy, so the CHARGE rule errs
  toward missing a violation, never toward inventing one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig

#: ``# simlint: ok[DET]``, ``# simlint: ok[DET,PAIR] free by design``
_SUPPRESSION = re.compile(r"#\s*simlint:\s*ok\[([A-Za-z*,\s]+)\]")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line number -> rule names suppressed on that line."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match:
            rules = {r.strip().upper() for r in match.group(1).split(",")}
            out[lineno] = {r for r in rules if r}
    return out


@dataclass
class Module:
    """One file under lint."""

    path: str                 # as reported in findings
    name: str                 # dotted module name, e.g. "repro.exec.sorter"
    package: str              # layer key: first component under the root
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """A finding is suppressed by ``ok[RULE]`` (or ``ok[*]``) on its
        own line or the line directly above it."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and (rule in rules or "*" in rules):
                return True
        return False


@dataclass(frozen=True)
class CallSite:
    """One resolved-enough call: bare callee name plus the receiver
    chain it was invoked through (``self.locks.acquire(...)`` ->
    name 'acquire', recv ('self', 'locks'))."""

    name: str
    recv: tuple[str, ...]
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function/method, with everything CHARGE needs pre-extracted.

    Nested functions and lambdas are folded into their outermost
    enclosing def: a charge inside a worker closure still discharges
    the enclosing function's obligation.
    """

    qualname: str             # "ClassName.method" or "function"
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Enclosing class name, or None for module-level functions.
    owner_class: str | None = None
    called_names: set[str] = field(default_factory=set)
    attr_names: set[str] = field(default_factory=set)
    call_sites: list[CallSite] = field(default_factory=list)
    charges_directly: bool = False
    is_property: bool = False


def _dotted(node: ast.AST) -> list[str]:
    """Attribute chain as names: ``self.db.counters.rpcs`` ->
    ['self', 'db', 'counters', 'rpcs'] (empty for non-chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def call_name(call: ast.Call) -> str | None:
    """Bare name of the callee: ``f(...)`` and ``x.y.f(...)`` -> 'f'."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _FunctionScanner(ast.NodeVisitor):
    """Fills a FunctionInfo from a def's whole subtree."""

    def __init__(self, info: FunctionInfo, config: LintConfig):
        self.info = info
        self.config = config

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            self.info.called_names.add(name)
            chain = tuple(_dotted(node.func))
            self.info.call_sites.append(
                CallSite(name, chain[:-1], node.lineno, node.col_offset)
            )
            if name in self.config.charge_calls:
                self.info.charges_directly = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.info.attr_names.add(node.attr)
        self.generic_visit(node)

    def _check_counter_target(self, target: ast.AST) -> None:
        chain = _dotted(target)
        if any(part in self.config.counter_names for part in chain[:-1]):
            self.info.charges_directly = True

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_counter_target(node.target)
        if _adds_into_bucket(node):
            self.info.charges_directly = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_counter_target(target)
        self.generic_visit(node)


def _adds_into_bucket(node: ast.AugAssign) -> bool:
    """``<map>[Bucket.CPU] += seconds``: ``charge_s`` without the call,
    an add into ``SimClock.buckets`` -- whatever name the map goes by
    where it was bound ahead of a loop, its key is a ``Bucket`` member."""
    target = node.target
    return (
        isinstance(node.op, ast.Add)
        and isinstance(target, ast.Subscript)
        and len(key := _dotted(target.slice)) == 2
        and key[0] == "Bucket"
    )


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        chain = _dotted(decorator)
        if chain and chain[-1] in ("property", "cached_property", "setter"):
            return True
    return False


class Project:
    """All modules plus the name-resolved call graph."""

    def __init__(self, modules: list[Module], config: LintConfig):
        self.modules = modules
        self.config = config
        self.functions: list[FunctionInfo] = []
        #: bare name -> every project function with that name.
        self.defs_by_name: dict[str, list[FunctionInfo]] = {}
        self._callgraph = None
        for module in modules:
            self._index_module(module)

    @property
    def callgraph(self):
        """The project-wide call graph with may-yield summaries, built
        once on first use and shared by every rule in the run."""
        if self._callgraph is None:
            from repro.lint.callgraph import CallGraph

            self._callgraph = CallGraph(self, self.config)
        return self._callgraph

    # -- indexing ---------------------------------------------------------

    def _index_module(self, module: Module) -> None:
        def register(node, qualname: str, owner: str | None = None) -> None:
            info = FunctionInfo(
                qualname=qualname,
                module=module,
                node=node,
                owner_class=owner,
                is_property=_is_property(node),
            )
            _FunctionScanner(info, self.config).visit(node)
            self.functions.append(info)
            self.defs_by_name.setdefault(node.name, []).append(info)

        for top in module.tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                register(top, top.name)
            elif isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        register(item, f"{top.name}.{item.name}", top.name)

    # -- charge reachability ----------------------------------------------
    # Both queries delegate to the shared call graph, which computes the
    # full name-resolved closures once and caches them for every rule.

    def reaches_charge(self, info: FunctionInfo) -> bool:
        """Can ``info`` reach a ``charge_*`` call or counter bump through
        the name-resolved call graph (including itself)?"""
        return self.callgraph.reaches_charge(info)

    def touches(self, info: FunctionInfo) -> str | None:
        """Does ``info`` touch a costed resource (directly or through a
        project-defined callee)?  Returns a short reason, or ``None``."""
        return self.callgraph.touches(info)


# -- building the project ---------------------------------------------------

_SKIP_DIRS = {"__pycache__"}


def iter_python_files(paths: tuple[str, ...], root: str) -> list[Path]:
    """Every ``.py`` file under the given paths (files or directories),
    deterministic order.  A path that does not exist raises
    :class:`FileNotFoundError`."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = Path(root) / path
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_file() and path.suffix == ".py":
            out.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(
                p.endswith(".egg-info") for p in candidate.parts
            ):
                continue
            out.append(candidate)
    return out


def module_name_for(path: Path, root_package: str) -> tuple[str, str]:
    """(dotted module name, layer package) for a file.

    The layer package is the first path component under the root
    package; files directly in the root package use their own stem
    (``repro/cli.py`` -> layer ``cli``).  Files outside any
    ``root_package`` directory get layer "" (LAYER skips them).
    """
    parts = list(path.with_suffix("").parts)
    if root_package in parts:
        idx = len(parts) - 1 - parts[::-1].index(root_package)
        tail = parts[idx:]
        name = ".".join(tail)
        package = tail[1] if len(tail) > 1 else root_package
        if package.endswith("__init__"):
            package = root_package
        return name, package
    return path.stem, ""


def build_project(
    files: list[Path], config: LintConfig
) -> tuple[Project, list]:
    """Parse every file; returns the project and a list of findings for
    files that do not parse (rule ``SYNTAX``)."""
    from repro.lint.findings import Finding

    modules: list[Module] = []
    errors: list[Finding] = []
    root = Path(config.root)
    for path in files:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            display = str(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="SYNTAX",
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        name, package = module_name_for(path, config.root_package)
        modules.append(
            Module(
                path=display,
                name=name,
                package=package,
                source=source,
                tree=tree,
                suppressions=parse_suppressions(source),
            )
        )
    return Project(modules, config), errors
