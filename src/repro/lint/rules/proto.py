"""PROTO — protocol state machines: txn lifecycle, WAL force, 2PC.

Three small per-protocol state machines, checked per function against
the source and the shared call graph:

**Txn lifecycle.**  A ``begin()`` whose result stays local must reach
exactly one of ``commit()``/``abort()``:

* *leak* — some normal path can exit with the transaction still open;
* *exception leak* — a call between ``begin`` and the completion can
  raise with no enclosing ``try`` whose handler or ``finally``
  completes the transaction (locks survive, the next client
  deadlocks);
* *double completion* — a second ``commit``/``abort`` on a path where
  the transaction is already definitely completed.

Ownership transfers are exempt: a begin used as a ``with`` context, or
whose result is stored into an attribute/container, returned, yielded
or handed to another function, is completed elsewhere (the ESCAPE and
PAIR rules guard those shapes).  An ``if`` whose test inspects
``.state`` (``if txn.state == "active": txn.abort()``) counts as an
unconditional completion — the condition *is* open-ness.  Lock-release
discipline (``release_all`` only from protected positions) is enforced
by the PAIR rule's cleanup check.

**WAL force rule.**  Appending a forced record kind (``"commit"``,
``"prepare"``, ``"checkpoint"``) obliges a later ``flush()`` on the
same log in the same function — the force-write point of the
write-ahead protocol.  ``release_all`` before that flush gives away
locks while the commit record is still volatile and is flagged too.

**2PC discipline.**  On any path that stages a prepare round
(``PROTO_PREPARE_CALLS`` or an append of a ``"prepare"`` record), a
decision-log write (append/flush through a ``decision_log`` chain)
must happen before any branch ``commit`` — the decision log *is* the
commit point of presumed-abort 2PC.  And ``resolve_in_doubt=`` may
only be passed to ``restart()``: in-doubt transactions are resolved by
recovery, never ad hoc.

**Failover fencing.**  A promotion application
(``PROTO_PROMOTE_CALLS``, i.e. the route rewrite installing a new
primary) must be fenced: earlier in the same function an ``"epoch"``
record is appended through a decision-log chain *and* that log is
flushed before the rewrite.  Once the epoch record is durable the old
primary is deposed even if it never hears so — promoting first would
let an amnesiac coordinator resurrect a zombie under the old epoch.

Suppressions carry ``# simlint: ok[PROTO] <why>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, Project, _dotted, call_name
from repro.lint.vocab import (
    CLEANUP_CALLS,
    PROTO_ABORT_CALLS,
    PROTO_BEGIN_CALLS,
    PROTO_COMMIT_CALLS,
    PROTO_DECISION_CHAINS,
    PROTO_FORCED_KINDS,
    PROTO_PREPARE_CALLS,
    PROTO_PROMOTE_CALLS,
    PROTO_RESTART_CALLS,
)

NAME = "PROTO"

_OPEN = "open"
_CLOSED = "closed"


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


def _own_nodes(node: ast.AST) -> list[ast.AST]:
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


# -- txn lifecycle -----------------------------------------------------------


@dataclass
class _BeginSite:
    call: ast.Call
    var: str | None            # local name holding the txn, if any
    recv: tuple[str, ...]      # receiver chain of the begin call
    #: literal ``isolation=`` keyword on the begin call (``"si"`` sites
    #: get the sharper leak message: an open SI transaction pins the
    #: MVCC garbage-collection horizon through its snapshot).
    isolation: str | None = None


class _TxnAnalysis:
    """State walk for one begin site: tracks {open, closed} along
    normal paths, records exits and double completions."""

    def __init__(self, site: _BeginSite):
        self.site = site
        self.exit_states: set[str] = set()
        self.double: list[ast.Call] = []
        self._seen_begin = False

    # matching ------------------------------------------------------------

    def _is_completion(self, node: ast.Call) -> bool:
        name = call_name(node)
        if name not in PROTO_COMMIT_CALLS and name not in PROTO_ABORT_CALLS:
            return False
        recv = tuple(_dotted(node.func))[:-1]
        if self.site.var is not None and recv == (self.site.var,):
            return True
        return bool(recv) and recv == self.site.recv

    def _completions_in(self, node: ast.AST) -> list[ast.Call]:
        found = []
        for sub in _own_nodes(node):
            if isinstance(sub, ast.Call) and self._is_completion(sub):
                found.append(sub)
        found.sort(key=lambda c: (c.lineno, c.col_offset))
        return found

    @staticmethod
    def _is_state_test(test: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Attribute) and sub.attr == "state"
            for sub in ast.walk(test)
        )

    # walking -------------------------------------------------------------

    def run(self, stmts: list[ast.stmt], state: frozenset) -> frozenset | None:
        """Returns the fall-through state set, or None if every path
        through these statements terminated (return/raise)."""
        cur: frozenset | None = state
        for stmt in stmts:
            if cur is None:
                break
            cur = self._stmt(stmt, cur)
        return cur

    def _apply_completions(
        self, node: ast.AST, state: frozenset
    ) -> frozenset:
        for comp in self._completions_in(node):
            if state == frozenset({_CLOSED}):
                self.double.append(comp)
            state = frozenset({_CLOSED})
        return state

    def _stmt(self, stmt: ast.stmt, state: frozenset) -> frozenset | None:
        if not self._seen_begin:
            # skip statements before the begin site; a compound
            # statement containing it is walked normally so the flag
            # flips at the inner assignment, not past the whole block
            if not any(sub is self.site.call for sub in ast.walk(stmt)):
                return state
            if not isinstance(
                stmt,
                (
                    ast.If,
                    ast.Try,
                    ast.While,
                    ast.For,
                    ast.AsyncFor,
                    ast.With,
                    ast.AsyncWith,
                ),
            ):
                # the walk starts with *no* transaction (empty state):
                # a begin inside a loop leaves the zero-iteration path
                # transaction-free, not open
                self._seen_begin = True
                return frozenset({_OPEN})

        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                state = self._apply_completions(stmt.value, state)
            self.exit_states |= state
            return None
        if isinstance(stmt, ast.Raise):
            return None  # exception path; the hazard check owns it
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return state

        if isinstance(stmt, ast.If):
            if self._is_state_test(stmt.test) and self._completions_in(stmt):
                # `if txn.state == "active": txn.abort()` — the test is
                # exactly open-ness, so this completes unconditionally.
                return frozenset({_CLOSED})
            then = self.run(stmt.body, state)
            other = self.run(stmt.orelse, state)
            merged = frozenset()
            if then is not None:
                merged |= then
            if other is not None:
                merged |= other
            return merged if merged else None

        if isinstance(stmt, ast.Try):
            after_body = self.run(stmt.body, state)
            if after_body is not None and stmt.orelse:
                after_body = self.run(stmt.orelse, after_body)
            merged = frozenset()
            if after_body is not None:
                merged |= after_body
            handler_in = state | (after_body or frozenset())
            for handler in stmt.handlers:
                res = self.run(handler.body, frozenset(handler_in))
                if res is not None:
                    merged |= res
            if not merged:
                if stmt.finalbody:
                    self.run(stmt.finalbody, frozenset(handler_in))
                return None
            final = self.run(stmt.finalbody, merged)
            return final if stmt.finalbody else merged

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            body_res = self.run(stmt.body, state)
            merged = state | (body_res or frozenset())
            if stmt.orelse:
                or_res = self.run(stmt.orelse, frozenset(merged))
                merged = or_res if or_res is not None else merged
            return frozenset(merged)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.run(stmt.body, state)

        # flat statement: apply completions in source order
        return self._apply_completions(stmt, state)


def _find_begin_sites(unit: ast.AST) -> list[_BeginSite]:
    """Begin calls in this unit whose result stays local (others are
    ownership transfers and exempt)."""
    with_contexts: set[int] = set()
    for node in _own_nodes(unit):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    with_contexts.add(id(sub))

    sites: list[_BeginSite] = []
    assigned: dict[int, str | None] = {}
    escaped_vars: set[str] = set()
    for node in _own_nodes(unit):
        if isinstance(node, ast.Assign):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and call_name(value) in PROTO_BEGIN_CALLS
            ):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    assigned[id(value)] = node.targets[0].id
                else:
                    assigned[id(value)] = "\0escape"  # attribute/tuple target
    for node in _own_nodes(unit):
        if isinstance(node, ast.Call) and call_name(node) in PROTO_BEGIN_CALLS:
            if id(node) in with_contexts:
                continue
            var = assigned.get(id(node))
            if var == "\0escape":
                continue
            recv = tuple(_dotted(node.func))[:-1]
            isolation = next(
                (
                    kw.value.value
                    for kw in node.keywords
                    if kw.arg == "isolation"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ),
                None,
            )
            sites.append(_BeginSite(node, var, recv, isolation))

    # escape analysis on the txn variables
    tracked = {s.var for s in sites if s.var is not None}
    if tracked:
        for node in _own_nodes(unit):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    for sub in ast.walk(value):
                        if (
                            isinstance(sub, ast.Name)
                            and sub.id in tracked
                        ):
                            escaped_vars.add(sub.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        for sub in ast.walk(node.value):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id in tracked
                            ):
                                escaped_vars.add(sub.id)
            elif isinstance(node, ast.Call):
                # txn handed to another function transfers completion
                # duty with it; `txn` as the *receiver* of a call
                # (txn.read(...)) is not an escape.
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    if isinstance(arg, ast.Name) and arg.id in tracked:
                        escaped_vars.add(arg.id)
    return [s for s in sites if s.var is None or s.var not in escaped_vars]


def _check_txn(
    info: FunctionInfo,
    qualname: str,
    unit: ast.AST,
    findings: list[Finding],
) -> None:
    symbol = f"{info.module.name}:{qualname}"
    body = getattr(unit, "body", [])
    for site in _find_begin_sites(unit):
        analysis = _TxnAnalysis(site)
        fall = analysis.run(body, frozenset())
        if fall is not None:
            analysis.exit_states |= fall
        completions = analysis._completions_in(unit)

        if _OPEN in analysis.exit_states:
            what = (
                "never reaches commit()/abort()"
                if not completions
                else "can exit with the transaction still open on some path"
            )
            if site.isolation == "si":
                message = (
                    f'begin(isolation="si") here {what}; the leaked '
                    "transaction's snapshot pins the MVCC GC horizon, so "
                    "no version stashed after it can ever be swept; every "
                    "path must complete the transaction exactly once (or "
                    "transfer ownership) — justify with "
                    "`# simlint: ok[PROTO] <why>`"
                )
            else:
                message = (
                    f"begin() here {what}; every path must complete "
                    "the transaction exactly once (or transfer "
                    "ownership) — justify with "
                    "`# simlint: ok[PROTO] <why>`"
                )
            findings.append(
                Finding(
                    rule=NAME,
                    path=info.module.path,
                    line=site.call.lineno,
                    col=site.call.col_offset,
                    message=message,
                    symbol=symbol,
                )
            )
        elif completions:
            _check_txn_hazards(
                info, symbol, unit, site, completions, findings
            )

        for comp in analysis.double:
            findings.append(
                Finding(
                    rule=NAME,
                    path=info.module.path,
                    line=comp.lineno,
                    col=comp.col_offset,
                    message=(
                        "second commit()/abort() on a path where the "
                        "transaction begun on line "
                        f"{site.call.lineno} is already completed; "
                        "complete exactly once — justify with "
                        "`# simlint: ok[PROTO] <why>`"
                    ),
                    symbol=symbol,
                )
            )


def _check_txn_hazards(
    info: FunctionInfo,
    symbol: str,
    unit: ast.AST,
    site: _BeginSite,
    completions: list[ast.Call],
    findings: list[Finding],
) -> None:
    """Exception-leak check: a raising call between begin and the first
    completion with no enclosing try that completes on failure."""
    analysis = _TxnAnalysis(site)
    first_completion = completions[0].lineno

    protected_spans: list[tuple[int, int]] = []
    for node in _own_nodes(unit):
        if not isinstance(node, ast.Try):
            continue
        guard_nodes = [*node.handlers, *node.finalbody]
        if any(
            analysis._completions_in(g) for g in guard_nodes
        ):
            start = min(s.lineno for s in node.body)
            end = max(s.end_lineno or s.lineno for s in node.body)
            protected_spans.append((start, end))

    exempt = {*PROTO_BEGIN_CALLS, *PROTO_COMMIT_CALLS, *PROTO_ABORT_CALLS}
    for node in _own_nodes(unit):
        if not isinstance(node, ast.Call):
            continue
        if not (site.call.lineno < node.lineno < first_completion):
            continue
        name = call_name(node)
        if name in exempt:
            continue
        if any(lo <= node.lineno <= hi for lo, hi in protected_spans):
            continue
        findings.append(
            Finding(
                rule=NAME,
                path=info.module.path,
                line=site.call.lineno,
                col=site.call.col_offset,
                message=(
                    f"a call between begin() here and the completion on "
                    f"line {first_completion} (first: {name}() on line "
                    f"{node.lineno}) can raise and leak the open "
                    "transaction; wrap the region in try/except-abort "
                    "or use the transaction context manager — justify "
                    "with `# simlint: ok[PROTO] <why>`"
                ),
                symbol=symbol,
            )
        )
        return  # one finding per begin site


# -- WAL force rule ----------------------------------------------------------


def _string_args(call: ast.Call) -> list[str]:
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def _check_wal(
    info: FunctionInfo,
    qualname: str,
    unit: ast.AST,
    findings: list[Finding],
) -> None:
    symbol = f"{info.module.name}:{qualname}"
    calls = [
        n
        for n in _own_nodes(unit)
        if isinstance(n, ast.Call) and call_name(n) is not None
    ]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    for call in calls:
        if call_name(call) != "append":
            continue
        kinds = [s for s in _string_args(call) if s in PROTO_FORCED_KINDS]
        if not kinds:
            continue
        recv = tuple(_dotted(call.func))[:-1]
        if not recv:
            continue
        flush = next(
            (
                c
                for c in calls
                if call_name(c) == "flush"
                and tuple(_dotted(c.func))[:-1] == recv
                and c.lineno >= call.lineno
            ),
            None,
        )
        log = ".".join(recv)
        if flush is None:
            findings.append(
                Finding(
                    rule=NAME,
                    path=info.module.path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{log}.append(..., \"{kinds[0]}\", ...) is a "
                        f"forced record but {log}.flush() never follows "
                        "in this function; the WAL force-write rule "
                        "requires the record durable before the effect "
                        "is visible — justify with "
                        "`# simlint: ok[PROTO] <why>`"
                    ),
                    symbol=symbol,
                )
            )
            continue
        early_release = next(
            (
                c
                for c in calls
                if call_name(c) in CLEANUP_CALLS
                and call.lineno < c.lineno < flush.lineno
            ),
            None,
        )
        if early_release is not None:
            findings.append(
                Finding(
                    rule=NAME,
                    path=info.module.path,
                    line=early_release.lineno,
                    col=early_release.col_offset,
                    message=(
                        f"locks released before {log}.flush() on line "
                        f"{flush.lineno} makes the un-flushed "
                        f"\"{kinds[0]}\" record visible to other "
                        "sessions; release only after the force write — "
                        "justify with `# simlint: ok[PROTO] <why>`"
                    ),
                    symbol=symbol,
                )
            )


# -- 2PC discipline ----------------------------------------------------------


def _check_twopc(
    info: FunctionInfo,
    qualname: str,
    unit: ast.AST,
    findings: list[Finding],
) -> None:
    symbol = f"{info.module.name}:{qualname}"

    prepare_lines: list[int] = []
    decision_lines: list[int] = []
    commit_refs: list[tuple[int, int, str]] = []
    call_funcs: set[int] = set()

    for node in _own_nodes(unit):
        if isinstance(node, ast.Call):
            call_funcs.add(id(node.func))
            name = call_name(node)
            recv = tuple(_dotted(node.func))[:-1]
            if name in PROTO_PREPARE_CALLS or (
                name == "append" and "prepare" in _string_args(node)
            ):
                prepare_lines.append(node.lineno)
            if name in ("append", "flush") and any(
                part in PROTO_DECISION_CHAINS for part in recv
            ):
                decision_lines.append(node.lineno)
            if name in PROTO_COMMIT_CALLS:
                commit_refs.append((node.lineno, node.col_offset, "call"))
            for kw in node.keywords:
                if (
                    kw.arg == "resolve_in_doubt"
                    and name not in PROTO_RESTART_CALLS
                ):
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=info.module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"resolve_in_doubt= passed to {name}(); "
                                "in-doubt transactions are resolved only "
                                "through restart() recovery — justify "
                                "with `# simlint: ok[PROTO] <why>`"
                            ),
                            symbol=symbol,
                        )
                    )
    for node in _own_nodes(unit):
        # a branch commit handed around as a callback
        # (``cluster.call(node, branch.commit, ...)``) is still a
        # commit reference on this path
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in PROTO_COMMIT_CALLS
            and id(node) not in call_funcs
        ):
            commit_refs.append((node.lineno, node.col_offset, "ref"))

    if not prepare_lines:
        return
    first_prepare = min(prepare_lines)
    for line, col, _kind in sorted(commit_refs):
        if line <= first_prepare:
            continue  # one-phase fast path before the prepare round
        if any(first_prepare < d < line for d in decision_lines):
            continue
        findings.append(
            Finding(
                rule=NAME,
                path=info.module.path,
                line=line,
                col=col,
                message=(
                    "branch commit reached after the prepare round on "
                    f"line {first_prepare} with no decision-log write in "
                    "between; under presumed-abort 2PC the decision log "
                    "is the commit point — append+flush the decision "
                    "first, or justify with `# simlint: ok[PROTO] <why>`"
                ),
                symbol=symbol,
            )
        )
        return


# -- failover fencing --------------------------------------------------------


def _check_failover(
    info: FunctionInfo,
    qualname: str,
    unit: ast.AST,
    findings: list[Finding],
) -> None:
    symbol = f"{info.module.name}:{qualname}"

    promote_calls: list[tuple[int, int, str]] = []
    epoch_lines: list[int] = []
    flush_lines: list[int] = []
    for node in _own_nodes(unit):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        recv = tuple(_dotted(node.func))[:-1]
        if name in PROTO_PROMOTE_CALLS:
            promote_calls.append((node.lineno, node.col_offset, name))
        on_decision_log = any(part in PROTO_DECISION_CHAINS for part in recv)
        if name == "append" and on_decision_log and (
            "epoch" in _string_args(node)
        ):
            epoch_lines.append(node.lineno)
        if name == "flush" and on_decision_log:
            flush_lines.append(node.lineno)

    for line, col, name in sorted(promote_calls):
        fences = [e for e in epoch_lines if e < line]
        fenced = any(
            e <= f < line for e in fences for f in flush_lines
        )
        if fenced:
            continue
        missing = (
            "no durable epoch fence" if not fences
            else f"the epoch record on line {fences[-1]} is never flushed"
        )
        findings.append(
            Finding(
                rule=NAME,
                path=info.module.path,
                line=line,
                col=col,
                message=(
                    f"{name}() applies a promotion with {missing} "
                    "before it; append+flush the \"epoch\" record to "
                    "the decision log first — once durable it deposes "
                    "the old primary even across a coordinator restart "
                    "— or justify with `# simlint: ok[PROTO] <why>`"
                ),
                symbol=symbol,
            )
        )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for info, qualname, unit in _units(project):
        _check_txn(info, qualname, unit, findings)
        _check_wal(info, qualname, unit, findings)
        _check_twopc(info, qualname, unit, findings)
        _check_failover(info, qualname, unit, findings)
    return findings
