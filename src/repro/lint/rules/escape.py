"""ESCAPE — borrowed handles must not outlive their ``with`` block.

``ObjectManager.borrow(rid)`` is the exception-safe load/unref bracket:
the handle it yields pins a page frame for exactly the ``with`` body.
A handle that *escapes* — returned, yielded, stored into a container or
attribute, or used after the block — is unpinned the moment the block
exits, so every later dereference reads a frame the buffer pool is free
to evict: a stale read that no test catches until the cache is small.

For every ``with <...>.borrow(...) as h:`` this rule flags, inside the
block:

* ``return h`` / ``yield h`` (including ``h`` nested in a
  tuple/list/dict/set literal) — returning a *derived value*
  (``return om.get_attr(h, ...)``) is fine, the handle is consumed
  while still pinned;
* ``<container-or-attribute> = h`` (or a literal containing ``h``)
  where the target is an attribute or subscript — the store outlives
  the block;
* ``xs.append(h)`` and friends (``ESCAPE_SINKS``) with ``h`` as a
  direct argument;

and, after the block, any read of ``h`` before it is rebound.

In the measured substrates (``CHARGE_PACKAGES``) a generator must also
not *suspend* inside the bracket: any ``yield`` / ``yield from``
lexically inside the block, whatever it yields, leaves the handle
referenced while the consumer runs -- for an operator's row generator,
across a batch boundary, where the scheduler hands the baton to other
sessions.  Build (and charge) the row inside the block, yield after it.

Suppressions carry ``# simlint: ok[ESCAPE] <why>``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, Project, call_name
from repro.lint.vocab import CHARGE_PACKAGES, ESCAPE_CALLS, ESCAPE_SINKS

NAME = "ESCAPE"


def _units(project: Project) -> list[tuple[FunctionInfo, str, ast.AST]]:
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


def mentions_handle(value: ast.AST, handle: str) -> bool:
    """Is the value the handle itself, or a literal container holding
    it?  A call *consuming* the handle does not count — its result is a
    derived value, produced while the handle is still pinned."""
    if isinstance(value, ast.Name):
        return value.id == handle
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return any(mentions_handle(e, handle) for e in value.elts)
    if isinstance(value, ast.Dict):
        return any(
            v is not None and mentions_handle(v, handle)
            for v in [*value.keys, *value.values]
        )
    if isinstance(value, ast.Starred):
        return mentions_handle(value.value, handle)
    return False


def _check_block(
    info: FunctionInfo,
    symbol: str,
    handle: str,
    block: ast.With | ast.AsyncWith,
    findings: list[Finding],
) -> None:
    measured = info.module.package in CHARGE_PACKAGES

    def flag(node: ast.AST, message: str) -> None:
        findings.append(
            Finding(
                rule=NAME,
                path=info.module.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                symbol=symbol,
            )
        )

    def escapes(how: str) -> str:
        return (
            f"borrowed handle `{handle}` {how}; the handle is "
            "unpinned when the with block exits, so any later "
            "use reads an evictable frame — extract the value "
            "inside the block instead, or justify with "
            "`# simlint: ok[ESCAPE] <why>`"
        )

    for stmt in block.body:
        for node in own_nodes(stmt):
            if isinstance(node, ast.Return):
                if node.value is not None and mentions_handle(
                    node.value, handle
                ):
                    flag(node, escapes("is returned out of its with block"))
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None and mentions_handle(
                    node.value, handle
                ):
                    flag(node, escapes("is yielded out of its with block"))
                elif measured:
                    flag(
                        node,
                        f"yield inside the borrow bracket of `{handle}`: "
                        "the generator suspends with the handle still "
                        "referenced, so it crosses a batch boundary (and "
                        "an early close leaks it) — build and charge the "
                        "row inside the block and yield after it",
                    )
            elif isinstance(node, ast.Assign):
                if mentions_handle(node.value, handle) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ):
                    flag(node, escapes("is stored into longer-lived state"))
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in ESCAPE_SINKS and any(
                    mentions_handle(arg, handle) for arg in node.args
                ):
                    flag(
                        node,
                        escapes(f"is stored via {name}() into a container"),
                    )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for info, qualname, unit in _units(project):
        symbol = f"{info.module.name}:{qualname}"
        body = getattr(unit, "body", [])
        nodes = own_nodes(unit)
        for node in nodes:
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                ctx = item.context_expr
                if not (
                    isinstance(ctx, ast.Call)
                    and call_name(ctx) in ESCAPE_CALLS
                ):
                    continue
                if not isinstance(item.optional_vars, ast.Name):
                    continue
                handle = item.optional_vars.id
                _check_block(info, symbol, handle, node, findings)

                # use after the block: first mention of the handle past
                # the block's end, unless it is a rebinding
                end = node.end_lineno or node.lineno
                later = sorted(
                    (
                        n
                        for n in nodes
                        if isinstance(n, ast.Name)
                        and n.id == handle
                        and n.lineno > end
                    ),
                    key=lambda n: (n.lineno, n.col_offset),
                )
                if later and isinstance(later[0].ctx, ast.Load):
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=info.module.path,
                            line=later[0].lineno,
                            col=later[0].col_offset,
                            message=(
                                f"borrowed handle `{handle}` used after "
                                f"its with block (closed on line {end}); "
                                "the frame is unpinned and may be "
                                "evicted — move the use inside the "
                                "block, or justify with "
                                "`# simlint: ok[ESCAPE] <why>`"
                            ),
                            symbol=symbol,
                        )
                    )
    return findings
