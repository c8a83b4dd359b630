"""LAYER — the architecture doc's import DAG, enforced.

``docs/architecture.md`` fixes a substrate order (units → errors →
simtime → storage → buffer → objects → ... → service → cli) and the
cost model depends on it: a lower layer importing a higher one creates
a cycle through which costs can be charged twice or not at all, and
makes the per-layer fault accounting unattributable.

The rule checks **module-level imports only**.  Two escape hatches are
deliberate and free:

* ``if TYPE_CHECKING:`` blocks — annotations are not wiring;
* function-scoped imports — deferred runtime wiring (e.g. recovery's
  restart hook looking up the service) is allowed because it cannot
  create an import cycle at module load.

The order is ``LAYER_ORDER`` in ``repro.lint.vocab``; a package
missing from it is itself flagged, so the order cannot rot.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import Module, Project
from repro.lint.vocab import LAYER_ORDER, ROOT_PACKAGE

NAME = "LAYER"


def _mentions_type_checking(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            return True
    return False


class _ImportCollector(ast.NodeVisitor):
    """Module-level imports: dotted target names with their nodes.

    Skips function bodies entirely and the body (not else) of
    ``if TYPE_CHECKING:``.
    """

    def __init__(self) -> None:
        self.imports: list[tuple[ast.stmt, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # function-scoped imports are the sanctioned escape hatch

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_If(self, node: ast.If) -> None:
        if _mentions_type_checking(node.test):
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append((node, alias.name))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # encoded as level + base; resolved later against the importing
        # module's dotted name (also handles `from repro import exec`).
        self.imports.append((node, f"\x00{node.level}\x00{node.module or ''}"))


def _resolve_from(module: Module, level: int, base: str) -> str:
    """Absolute dotted module path for a (possibly relative) import."""
    if level == 0:
        return base
    parts = module.name.split(".")
    # level=1 strips the module's own name, leaving its package; each
    # further level strips one more package.
    anchor = parts[: len(parts) - level]
    if base:
        anchor.append(base)
    return ".".join(anchor)


def _target_packages(
    module: Module, node: ast.stmt, spec: str, root: str
) -> list[str]:
    """Layer packages an import statement pulls in (empty for external
    modules)."""
    if spec.startswith("\x00"):
        _, level, base = spec.split("\x00")
        resolved = _resolve_from(module, int(level), base)
        assert isinstance(node, ast.ImportFrom)
        if resolved == root:
            # ``from repro import exec``: the aliases are the packages.
            return [alias.name for alias in node.names]
        dotted = resolved.split(".")
    else:
        dotted = spec.split(".")
    if dotted[0] != root:
        return []
    return [dotted[1]] if len(dotted) > 1 else []


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    order = {package: i for i, package in enumerate(LAYER_ORDER)}
    root = ROOT_PACKAGE
    for module in project.modules:
        package = module.package
        if not package:
            continue
        collector = _ImportCollector()
        collector.visit(module.tree)
        importer_idx = order.get(package)
        if importer_idx is None and package != root:
            findings.append(
                Finding(
                    rule=NAME,
                    path=module.path,
                    line=1,
                    col=0,
                    message=(
                        f"package '{package}' is not in LAYER_ORDER; add it "
                        "to repro.lint.vocab so its imports are checked"
                    ),
                    symbol=module.name,
                )
            )
            continue
        for node, spec in collector.imports:
            for target in _target_packages(module, node, spec, root):
                if target == package:
                    continue
                target_idx = order.get(target)
                if target_idx is None:
                    # importing repro.<module>.py directly from the root
                    # (e.g. ``from repro import cli``) — the stem is the
                    # layer, already covered; anything else is unknown.
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"import target '{root}.{target}' is not in "
                                "LAYER_ORDER; add it to repro.lint.vocab"
                            ),
                            symbol=f"{module.name} -> {target}",
                        )
                    )
                elif package == root:
                    continue  # the root __init__ re-exports freely
                elif target_idx > importer_idx:
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"'{package}' (layer {importer_idx}) may not "
                                f"import '{target}' (layer {target_idx}); "
                                "the substrate DAG in docs/architecture.md "
                                "only allows downward imports"
                            ),
                            symbol=f"{module.name} -> {target}",
                        )
                    )
    return findings
