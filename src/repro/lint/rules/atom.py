"""ATOM — no read-modify-write across a yield point without a bracket.

The cooperative scheduler interleaves sessions at yield points: page
faults, lock waits, batch boundaries and voluntary pauses.  Server-tier
state shared between sessions — scheduler run queues, lock tables,
buffer tables, WAL buffers, governor counters, 2PC decision logs — is
only safe to read-modify-write when no other session can run in
between.  A sequence

    v = self._tasks[...]        # read
    self.locks.acquire(...)     # may suspend; another session runs
    self._tasks[...] = v + 1    # write of the now-stale read

is a lost update waiting for the next workload mix.  This rule uses the
shared call graph's may-yield closure (``repro.lint.callgraph``) to
flag exactly that shape in the server-tier packages
(``ATOM_PACKAGES``): a read and a later write of the same shared-state
attribute chain with a may-yield call strictly between them, when the
write is not protected by

* an enclosing ``with`` whose context names a guard
  (``ATOM_GUARDS``: ``_cv``, ``lock``, ...) — the documented critical
  bracket, or
* an earlier explicit lock acquisition in the same function
  (``ATOM_LOCK_CALLS``) — strict-2PL paths own their records once the
  lock is granted.

An augmented assignment whose right-hand side can itself yield
(``self.counter += self._charge()`` where ``_charge`` faults) is the
same bug in one statement and is flagged directly.  Justified
exceptions carry ``# simlint: ok[ATOM] <why>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.project import CallSite, FunctionInfo, Project, _dotted, call_name
from repro.lint.vocab import (
    ATOM_GUARDS,
    ATOM_LOCK_CALLS,
    ATOM_PACKAGES,
    ATOM_STATE_ATTRS,
)

NAME = "ATOM"

#: Method names that mutate a container in place: a call like
#: ``self._queue.append(x)`` is a *write* of ``self._queue``.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "insert",
        "extend",
        "update",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "setdefault",
    }
)


@dataclass
class _Event:
    kind: str                 # "load" | "store" | "yield" | "acquire"
    chain: tuple[str, ...]    # state chain for load/store, () otherwise
    line: int
    col: int
    guarded: bool
    detail: str = ""          # yield chain text for "yield" events


def _is_guard(expr: ast.AST) -> bool:
    return any(part in ATOM_GUARDS for part in _dotted(expr))


class _Scanner:
    """Collects state accesses and suspension points for one unit."""

    def __init__(self, info: FunctionInfo, graph):
        self.info = info
        self.graph = graph
        self.events: list[_Event] = []

    def _chain_of(self, node: ast.AST) -> tuple[str, ...] | None:
        """The state chain a node addresses, or None.  Subscript targets
        (``self._tasks[k]``) address the chain of their value."""
        while isinstance(node, ast.Subscript):
            node = node.value
        chain = tuple(_dotted(node))
        if chain and chain[-1] in ATOM_STATE_ATTRS:
            return chain
        return None

    def _record(self, kind: str, node: ast.AST, guarded: bool) -> None:
        chain = self._chain_of(node)
        if chain is not None:
            self.events.append(
                _Event(kind, chain, node.lineno, node.col_offset, guarded)
            )

    def scan(self, stmts: list[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            self.visit(stmt, guarded)

    def visit(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return  # separate execution unit
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = guarded or any(
                _is_guard(item.context_expr)
                for item in node.items
            )
            for item in node.items:
                self.visit(item.context_expr, guarded)
            self.scan(node.body, inner)
            return
        if isinstance(node, ast.AugAssign):
            # no load event for the target: an augmented assignment's
            # read is consumed by its own write on the same line, so it
            # cannot be held stale across a later yield
            self.visit(node.value, guarded)
            chain = self._chain_of(node.target)
            if chain is not None:
                self.events.append(
                    _Event(
                        "store", chain, node.lineno, node.col_offset,
                        guarded, "aug",
                    )
                )
            return
        if isinstance(node, ast.Assign):
            self.visit(node.value, guarded)
            for target in node.targets:
                self._record("store", target, guarded)
                # subscripted targets still *read* the container
                self.visit(target, guarded)
            return
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None:
                chain = tuple(_dotted(node.func))
                site = CallSite(name, chain[:-1], node.lineno, node.col_offset)
                reason = self.graph.site_may_yield(self.info, site)
                if reason is not None:
                    self.events.append(
                        _Event(
                            "yield", (), node.lineno, node.col_offset,
                            guarded, reason,
                        )
                    )
                if name in ATOM_LOCK_CALLS:
                    self.events.append(
                        _Event(
                            "acquire", (), node.lineno, node.col_offset,
                            guarded,
                        )
                    )
                if (
                    name in _MUTATORS
                    and len(chain) >= 2
                    and chain[-2] in ATOM_STATE_ATTRS
                ):
                    # ``self._queue.append(x)`` writes ``self._queue``
                    self.events.append(
                        _Event(
                            "store",
                            tuple(chain[:-1]),
                            node.lineno,
                            node.col_offset,
                            guarded,
                        )
                    )
            for child in ast.iter_child_nodes(node):
                self.visit(child, guarded)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._record("load", node, guarded)
        for child in ast.iter_child_nodes(node):
            self.visit(child, guarded)


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


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    graph = project.callgraph

    for info, qualname, node in _units(project):
        if info.module.package not in ATOM_PACKAGES:
            continue
        scanner = _Scanner(info, graph)
        scanner.scan(node.body, False)
        events = sorted(scanner.events, key=lambda e: (e.line, e.col))
        symbol = f"{info.module.name}:{qualname}"

        yields = [e for e in events if e.kind == "yield"]
        if not yields:
            continue
        acquires = [e for e in events if e.kind == "acquire"]

        def protected(event: _Event) -> bool:
            return event.guarded or any(
                a.line < event.line for a in acquires
            )

        flagged: set[tuple[int, int]] = set()
        for store in events:
            if store.kind != "store" or protected(store):
                continue
            for yld in yields:
                if yld.line >= store.line:
                    break
                hit = next(
                    (
                        load
                        for load in events
                        if load.kind == "load"
                        and load.chain == store.chain
                        and load.line < yld.line
                    ),
                    None,
                )
                if hit is None:
                    continue
                key = (store.line, store.col)
                if key in flagged:
                    break
                flagged.add(key)
                attr = ".".join(store.chain)
                findings.append(
                    Finding(
                        rule=NAME,
                        path=info.module.path,
                        line=store.line,
                        col=store.col,
                        message=(
                            f"read of {attr} on line {hit.line} and this "
                            f"write span a may-yield call on line "
                            f"{yld.line} ({yld.detail}); another session "
                            "can interleave — hold the critical bracket "
                            "(e.g. `with self._cv:`) across the sequence, "
                            "acquire the lock first, or justify with "
                            "`# simlint: ok[ATOM] <why>`"
                        ),
                        symbol=symbol,
                    )
                )
                break

        # one-statement RMW whose modify step can itself yield:
        # an augmented assignment evaluating a suspending call.
        for store in events:
            if store.kind != "store" or store.detail != "aug":
                continue
            if protected(store):
                continue
            for yld in yields:
                if yld.line != store.line:
                    continue
                key = (store.line, store.col)
                if key in flagged:
                    continue
                flagged.add(key)
                attr = ".".join(store.chain)
                findings.append(
                    Finding(
                        rule=NAME,
                        path=info.module.path,
                        line=store.line,
                        col=store.col,
                        message=(
                            f"augmented write of {attr} evaluates a "
                            f"may-yield call on the same line "
                            f"({yld.detail}); the read-modify-write is "
                            "not atomic under the cooperative scheduler "
                            "— hoist the call before the update or hold "
                            "the bracket; justify with "
                            "`# simlint: ok[ATOM] <why>`"
                        ),
                        symbol=symbol,
                    )
                )
    return findings
