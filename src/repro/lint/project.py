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

from repro.lint.vocab import CHARGE_CALLS, COUNTER_NAMES, ROOT_PACKAGE

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

    def __init__(self, info: FunctionInfo, bucket_names: frozenset[str]):
        self.info = info
        self.bucket_names = bucket_names

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            self.info.called_names.add(name)
            chain = tuple(_dotted(node.func))
            self.info.call_sites.append(
                CallSite(name, chain[:-1], node.lineno, node.col_offset)
            )
            if name in CHARGE_CALLS:
                self.info.charges_directly = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.info.attr_names.add(node.attr)
        self.generic_visit(node)

    def _check_counter_target(self, target: ast.AST) -> None:
        chain = _dotted(target)
        if any(part in COUNTER_NAMES for part in chain[:-1]):
            self.info.charges_directly = True

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_counter_target(node.target)
        if _adds_into_bucket(node, self.bucket_names):
            self.info.charges_directly = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_counter_target(target)
        self.generic_visit(node)


def _bucket_names(tree: ast.Module) -> frozenset[str]:
    """Names a module binds to a ``Bucket`` member at its top level
    (``_CPU = Bucket.CPU``), which is how a charge site spells its key."""
    return frozenset(
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(value := _dotted(node.value)) == 2 and value[0] == "Bucket"
        for target in node.targets
        if isinstance(target, ast.Name)
    )


def _adds_into_bucket(node: ast.AugAssign, bucket_names: frozenset[str]) -> bool:
    """``<map>[_CPU] += seconds``: ``charge_s`` without the call, an add
    into ``SimClock.buckets`` -- whatever name the map goes by where it
    was bound ahead of a loop, its key is a ``Bucket`` member, read off
    the class or through a module-level name bound to one."""
    target = node.target
    if not (isinstance(node.op, ast.Add) and isinstance(target, ast.Subscript)):
        return False
    key = _dotted(target.slice)
    return (len(key) == 2 and key[0] == "Bucket") or (
        len(key) == 1 and key[0] in bucket_names
    )


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        chain = _dotted(decorator)
        if chain and chain[-1] in ("property", "cached_property", "setter"):
            return True
    return False


class Project:
    """All modules plus the name-resolved call graph."""

    def __init__(self, modules: list[Module]):
        self.modules = modules
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

            self._callgraph = CallGraph(self)
        return self._callgraph

    # -- indexing ---------------------------------------------------------

    def _index_module(self, module: Module) -> None:
        bucket_names = _bucket_names(module.tree)

        def register(node, qualname: str, owner: str | None = None) -> None:
            info = FunctionInfo(
                qualname=qualname,
                module=module,
                node=node,
                owner_class=owner,
                is_property=_is_property(node),
            )
            _FunctionScanner(info, bucket_names).visit(node)
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


# -- execution units -----------------------------------------------------------


def units(project: Project) -> list[tuple[FunctionInfo, str, ast.AST]]:
    """Every execution unit: each indexed function, then every def
    nested in it (closures and local helpers run separately, so a rule
    checks them on their own), as ``(info, qualname, node)``."""
    out = []
    for info in project.functions:
        out.append((info, info.qualname, info.node))
        for sub in ast.walk(info.node):
            if (
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not info.node
            ):
                out.append((info, f"{info.qualname}.{sub.name}", sub))
    return out


def own_nodes(node: ast.AST) -> list[ast.AST]:
    """Every node of this unit, nested defs/lambdas excluded."""
    out: list[ast.AST] = []

    def walk(n: ast.AST, top: bool) -> None:
        if not top and isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        out.append(n)
        for child in ast.iter_child_nodes(n):
            walk(child, False)

    walk(node, True)
    return out


# -- building the project ---------------------------------------------------

_SKIP_DIRS = {"__pycache__"}


def iter_python_files(paths: tuple[str, ...]) -> list[Path]:
    """Every ``.py`` file under the given paths (files or directories),
    deterministic order.  A path that does not exist raises
    :class:`FileNotFoundError`."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
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


def module_name_for(path: Path) -> tuple[str, str]:
    """(dotted module name, layer package) for a file.

    The layer package is the first path component under the root
    package; files directly in the root package use their own stem
    (``repro/cli.py`` -> layer ``cli``).  Files outside any
    ``ROOT_PACKAGE`` directory get layer "" (LAYER skips them).
    """
    parts = list(path.with_suffix("").parts)
    if ROOT_PACKAGE in parts:
        idx = len(parts) - 1 - parts[::-1].index(ROOT_PACKAGE)
        tail = parts[idx:]
        name = ".".join(tail)
        package = tail[1] if len(tail) > 1 else ROOT_PACKAGE
        if package.endswith("__init__"):
            package = ROOT_PACKAGE
        return name, package
    return path.stem, ""


def build_project(files: list[Path]) -> tuple[Project, list]:
    """Parse every file; returns the project and a list of findings for
    files that do not parse (rule ``SYNTAX``).  Findings name a file
    relative to the working directory when it lies below it."""
    from repro.lint.findings import Finding

    modules: list[Module] = []
    errors: list[Finding] = []
    cwd = Path.cwd()
    for path in files:
        try:
            display = str(path.relative_to(cwd))
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
        name, package = module_name_for(path)
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
    return Project(modules), errors
