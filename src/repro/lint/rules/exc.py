"""EXC — over-broad ``except`` clauses.

Aborted transactions, lock timeouts and injected crash points all
travel as ``repro.errors`` exceptions.  A bare ``except:`` or an
``except Exception`` that does not re-raise can swallow them, turning
a deliberately failed run into a silently wrong result row.

Flagged:

* ``except:`` (bare) — always;
* ``except Exception`` / ``except BaseException`` (alone or in a
  tuple) whose handler contains no ``raise``.

A handler that re-raises anywhere in its body (``except BaseException:
cancel(); raise``) is the sanctioned cleanup idiom and is not flagged.
Trampolines that must capture arbitrary task failures justify
themselves with ``# simlint: ok[EXC] <why>``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import Module, Project

NAME = "EXC"

_BROAD = {"Exception", "BaseException"}


def _broad_names(type_node: ast.AST | None) -> list[str]:
    """Over-broad exception names in an ``except`` type expression."""
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    out = []
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD:
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in _BROAD:
            out.append(node.attr)
    return out


def _reraises(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


class _ExcVisitor(ast.NodeVisitor):
    def __init__(self, module: Module):
        self.module = module
        self.findings: list[Finding] = []
        self._symbol_stack: list[str] = []

    def _flag(self, node: ast.ExceptHandler, message: str) -> None:
        symbol = ".".join(self._symbol_stack) or "<module>"
        self.findings.append(
            Finding(
                rule=NAME,
                path=self.module.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                symbol=f"{self.module.name}:{symbol}",
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

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                "bare `except:` swallows every exception, including "
                "repro.errors types like TransactionAborted; name the "
                "exceptions this handler is for",
            )
        else:
            broad = _broad_names(node.type)
            if broad and not _reraises(node):
                self._flag(
                    node,
                    f"`except {broad[0]}` without a re-raise can swallow "
                    "repro.errors types (aborts, lock timeouts, crash "
                    "points); catch specific exceptions or re-raise",
                )
        self.generic_visit(node)


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        visitor = _ExcVisitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings
