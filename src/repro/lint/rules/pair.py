"""PAIR — paired resources released on every exit path.

A leaked object handle pins a page frame and skews every later fault
count; a lock that survives its transaction deadlocks the next client.
For each (open, close) method-name pair in ``PAIRS`` —
``load``/``unref``, ``acquire``/``release_all``, ``pin``/``unpin`` —
this rule does an intra-function analysis:

* a close call is **protected** iff it sits in a ``finally`` block or
  an ``except`` handler;
* an open call with a later *unprotected* close in the same function is
  flagged when any call (or ``yield``) between them can raise and skip
  the close.

Open calls with no close in the same function are ownership transfers
(e.g. a constructor storing the handle) and are not flagged — unless
the function provably keeps the resource to itself: ``h = om.load(rid)``
where ``h`` is never returned, yielded, stored (attribute, subscript,
``ESCAPE_SINKS`` container call), rebound to another name nor entered as
a ``with`` block is a reference dropped on the floor, and is flagged.
That check runs in the measured substrates only (``CHARGE_PACKAGES``,
the operators among them): elsewhere ``load`` is as likely ``json.load``.

Separately, ``CLEANUP_CALLS`` (``release_all``) must be
unskippable wherever they appear: an unprotected ``release_all`` with
any raising call before it in the function is flagged even with no
matching ``acquire`` in sight, because lock lifetimes span functions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.project import Project, call_name
from repro.lint.rules.escape import mentions_handle, own_nodes
from repro.lint.vocab import CHARGE_PACKAGES, CLEANUP_CALLS, ESCAPE_SINKS, PAIRS

NAME = "PAIR"


@dataclass
class _Event:
    """One call or yield inside a function, in source order."""

    name: str | None      # callee bare name; None for yield
    line: int
    col: int
    protected: bool       # inside a finally block or except handler


def _collect_events(
    body: list[ast.stmt], protected: bool, out: list[_Event]
) -> None:
    for stmt in body:
        _collect_from_node(stmt, protected, out)


def _collect_from_node(node: ast.AST, protected: bool, out: list[_Event]) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return  # nested defs execute later; not part of this path
    if isinstance(node, ast.Try):
        _collect_events(node.body, protected, out)
        _collect_events(node.orelse, protected, out)
        for handler in node.handlers:
            _collect_events(handler.body, True, out)
        _collect_events(node.finalbody, True, out)
        return
    if isinstance(node, ast.Call):
        out.append(
            _Event(call_name(node), node.lineno, node.col_offset, protected)
        )
    elif isinstance(node, (ast.Yield, ast.YieldFrom)):
        out.append(_Event(None, node.lineno, node.col_offset, protected))
    for child in ast.iter_child_nodes(node):
        _collect_from_node(child, protected, out)


def _hazard_between(events: list[_Event], start: int, end: int, ignore: set[str]) -> bool:
    """Is there a call (or yield) strictly between lines start and end
    that could raise and skip the close?"""
    for event in events:
        if start < event.line < end and (event.name is None or event.name not in ignore):
            return True
    return False


def _hazard_before(events: list[_Event], end: int, ignore: set[str]) -> bool:
    for event in events:
        if event.line < end and (event.name is None or event.name not in ignore):
            return True
    return False


def _nested_defs(node: ast.AST) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node
    ]


def _dropped_opens(unit: ast.AST, open_name: str) -> list[tuple[ast.Call, str]]:
    """``name = <...>.open_name(...)`` calls whose ``name`` never leaves
    the function (the module docstring lists the ways out)."""
    nodes = own_nodes(unit)
    bound = [
        (node.value, node.targets[0].id)
        for node in nodes
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and call_name(node.value) == open_name
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]

    def leaves(node: ast.AST, name: str) -> bool:
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom, ast.Assign)):
            return node.value is not None and mentions_handle(node.value, name)
        if isinstance(node, ast.Call):
            return call_name(node) in ESCAPE_SINKS and any(
                mentions_handle(arg, name) for arg in node.args
            )
        if isinstance(node, ast.withitem):
            return mentions_handle(node.context_expr, name)
        return False

    return [
        (call, name)
        for call, name in bound
        if not any(leaves(node, name) for node in nodes)
    ]


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    units: list[tuple] = []
    for info in project.functions:
        units.append((info, info.qualname, info.node))
        # nested defs (closures, local helpers) are separate execution
        # units: a leak inside one is a leak every time it is called.
        for nested in _nested_defs(info.node):
            units.append((info, f"{info.qualname}.{nested.name}", nested))
    for info, qualname, node in units:
        events: list[_Event] = []
        _collect_events(node.body, False, events)
        events.sort(key=lambda e: (e.line, e.col))
        symbol = f"{info.module.name}:{qualname}"
        measured = info.module.package in CHARGE_PACKAGES

        for open_name, close_name in PAIRS:
            opens = [e for e in events if e.name == open_name]
            closes = [e for e in events if e.name == close_name]
            if opens and not closes and measured:
                for call, name in _dropped_opens(node, open_name):
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=info.module.path,
                            line=call.lineno,
                            col=call.col_offset,
                            message=(
                                f"{open_name}() here is never paired with "
                                f"{close_name}(): `{name}` does not leave "
                                "the function, so the reference is dropped "
                                "while still held; close it in try/finally "
                                "(or use a context manager)"
                            ),
                            symbol=symbol,
                        )
                    )
            if not opens or not closes:
                continue
            ignore = {open_name, close_name}
            for open_event in opens:
                after = [c for c in closes if c.line > open_event.line]
                if not after:
                    continue  # ownership transferred out of this function
                close_event = after[0]
                if close_event.protected:
                    continue
                if _hazard_between(
                    events, open_event.line, close_event.line, ignore
                ):
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=info.module.path,
                            line=open_event.line,
                            col=open_event.col,
                            message=(
                                f"{open_name}() here is paired with "
                                f"{close_name}() on line {close_event.line}, "
                                "but a call in between can raise and skip "
                                "it; move the close into try/finally (or "
                                "use a context manager)"
                            ),
                            symbol=symbol,
                        )
                    )

        for close_name in sorted(CLEANUP_CALLS):
            for close_event in events:
                if close_event.name != close_name or close_event.protected:
                    continue
                if _hazard_before(events, close_event.line, {close_name}):
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=info.module.path,
                            line=close_event.line,
                            col=close_event.col,
                            message=(
                                f"{close_name}() can be skipped if an "
                                "earlier call raises; cleanup calls must "
                                "run from a finally block or an exception "
                                "path must be shown safe with "
                                "`# simlint: ok[PAIR] <why>`"
                            ),
                            symbol=symbol,
                        )
                    )
    return findings
