"""DET — determinism hazards.

The whole methodology depends on bit-identical reruns: `Stat` rows are
compared across runs, the recovery fuzzer replays crash points, and the
service scheduler interleaves clients by simulated time.  Anything that
injects wall-clock time, OS entropy, or hash/id ordering breaks all of
it silently.  This rule flags:

* wall-clock calls (``time.time``, ``datetime.now``, ...);
* OS entropy (``os.urandom``, ``uuid.uuid1/uuid4``);
* unseeded randomness (module-level ``random.*`` functions and a
  no-argument ``Random()``) — seeded ``random.Random(seed)`` is the
  sanctioned idiom;
* ``id()`` used as a sort key;
* the cyclic collector's switches (``disable``, ``enable``, ``freeze``,
  ``collect`` of the ``gc`` module) anywhere but the host module,
  ``repro.simtime.host``: a pause that is not restored on every path, or
  a process-global freeze, changes what the next measurement costs;
* iterating a set (literal, ``set()`` call, set algebra) into ordered
  output without ``sorted()`` — ``for``/comprehensions and
  order-preserving consumers (``list``, ``tuple``, ``enumerate``,
  ``str.join``).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import Module, Project, _dotted, call_name

NAME = "DET"

#: (second-to-last, last) dotted-name suffixes of forbidden calls.
_WALL_CLOCK = {
    ("time", "time"): "wall-clock time",
    ("time", "time_ns"): "wall-clock time",
    ("time", "monotonic"): "wall-clock time",
    ("time", "monotonic_ns"): "wall-clock time",
    ("time", "perf_counter"): "wall-clock time",
    ("time", "perf_counter_ns"): "wall-clock time",
    ("datetime", "now"): "wall-clock time",
    ("datetime", "utcnow"): "wall-clock time",
    ("datetime", "today"): "wall-clock time",
    ("date", "today"): "wall-clock time",
    ("os", "urandom"): "OS entropy",
    ("uuid", "uuid1"): "OS entropy",
    ("uuid", "uuid4"): "OS entropy",
}

#: The cyclic collector's switches, and the one module that may throw
#: them (behind ``collector_paused``).
_COLLECTOR = {
    ("gc", "disable"),
    ("gc", "enable"),
    ("gc", "freeze"),
    ("gc", "collect"),
}
_HOST_MODULE = "repro.simtime.host"
_COLLECTOR_ADVICE = (
    "switches the process's cyclic collector; only "
    f"{_HOST_MODULE} may (use its collector_paused; a dropped database "
    "is freed by reference counting, with no collection)"
)

#: module-level ``random.X`` functions that use the shared, unseeded
#: global generator.
_GLOBAL_RANDOM = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "getrandbits",
    "gauss",
}

#: ``from <module> import <name>`` pairs that smuggle the same hazards
#: in under a bare name.
_BAD_IMPORTS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
} | {("random", name) for name in _GLOBAL_RANDOM}

#: consumers that preserve iteration order.
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate"}


def _is_unordered(node: ast.AST) -> bool:
    """Does this expression produce arbitrary (hash) iteration order?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


def _lambda_calls_id(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return True
    return False


class _DetVisitor(ast.NodeVisitor):
    def __init__(self, module: Module):
        self.module = module
        self.findings: list[Finding] = []
        self._symbol_stack: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def _symbol(self) -> str:
        return ".".join(self._symbol_stack) or "<module>"

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=NAME,
                path=self.module.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                symbol=f"{self.module.name}:{self._symbol()}",
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._symbol_stack.append(node.name)
        self.generic_visit(node)
        self._symbol_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._symbol_stack.append(node.name)
        self.generic_visit(node)
        self._symbol_stack.pop()

    # -- imports -----------------------------------------------------------

    def _collector_switch(self, pair: tuple) -> bool:
        return pair in _COLLECTOR and self.module.name != _HOST_MODULE

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if self._collector_switch((node.module, alias.name)):
                self._flag(
                    node, f"import of {node.module}.{alias.name} {_COLLECTOR_ADVICE}"
                )
            elif (node.module, alias.name) in _BAD_IMPORTS:
                self._flag(
                    node,
                    f"import of {node.module}.{alias.name} brings a "
                    "nondeterministic source into scope; use SimClock or a "
                    "seeded random.Random",
                )

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = tuple(_dotted(node.func))
        suffix = chain[-2:]
        if suffix in _WALL_CLOCK:
            self._flag(
                node,
                f"{'.'.join(suffix)}() is {_WALL_CLOCK[suffix]}; simulated "
                "runs must take time only from SimClock",
            )
        elif (
            len(suffix) == 2
            and suffix[0] == "random"
            and suffix[1] in _GLOBAL_RANDOM
        ):
            self._flag(
                node,
                f"random.{suffix[1]}() uses the global unseeded generator; "
                "use a random.Random(seed) instance",
            )
        elif self._collector_switch(suffix):
            self._flag(node, f"{'.'.join(suffix)}() {_COLLECTOR_ADVICE}")
        elif chain and chain[-1] == "Random" and not node.args and not node.keywords:
            self._flag(
                node,
                "Random() without a seed draws entropy from the OS; pass an "
                "explicit seed",
            )

        name = call_name(node)
        if name in ("sorted", "min", "max") or name == "sort":
            for keyword in node.keywords:
                if keyword.arg == "key" and (
                    (isinstance(keyword.value, ast.Name) and keyword.value.id == "id")
                    or (
                        isinstance(keyword.value, ast.Lambda)
                        and _lambda_calls_id(keyword.value)
                    )
                ):
                    self._flag(
                        keyword.value,
                        "id() as a sort key orders by allocation address, "
                        "which varies run to run; sort by a stable field",
                    )
        if name in _ORDERED_CONSUMERS and node.args and _is_unordered(node.args[0]):
            self._flag(
                node,
                f"{name}() over a set materialises arbitrary hash order; "
                "wrap the set in sorted()",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and _is_unordered(node.args[0])
        ):
            self._flag(
                node,
                "join() over a set concatenates in arbitrary hash order; "
                "wrap the set in sorted()",
            )
        self.generic_visit(node)

    # -- iteration ---------------------------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_unordered(iter_node):
            self._flag(
                iter_node,
                "iterating a set yields arbitrary hash order; wrap it in "
                "sorted() before it can feed results, meters, or the WAL",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        visitor = _DetVisitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings
