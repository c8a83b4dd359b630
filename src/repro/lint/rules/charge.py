"""CHARGE — cost completeness in the measured substrates.

Figures 6–9 of the paper plot simulated time and I/O counters; they are
only meaningful if every page access, handle operation and RPC on a
measured path charges the :class:`SimClock` or bumps a
:class:`CounterSet`.  This rule walks every *public* function in the
charge packages (``storage``, ``buffer``, ``exec``, ``objects`` by
default), asks two questions of the name-resolved call graph:

1. does the function *touch* a costed resource (calls a page/handle
   method from ``TOUCH_METHODS``, or reads raw storage state from
   ``TOUCH_ATTRS``), directly or through project callees?
2. can it *reach* a ``charge_ms``/``charge_us``/``charge_s`` call, an
   in-place add into the clock's bucket map (``<map>[_CPU] += seconds``,
   ``_CPU`` bound to ``Bucket.CPU`` at module level: how the per-row
   sites charge) or a ``counters.<field> +=
   ...`` bump the same way?

and flags functions where (1) holds but (2) does not.  Because calls
are resolved by bare name to every project function with that name,
reachability is over-approximated: the rule prefers missing a
violation to inventing one.  Deliberately free paths (debug
introspection, crash simulation) carry ``# simlint: ok[CHARGE]``
suppressions stating *why* they are free.

Private helpers (leading underscore), dunders and properties are
skipped — their cost obligations belong to the public entry points
that call them.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.vocab import CHARGE_PACKAGES

NAME = "CHARGE"


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for info in project.functions:
        if info.module.package not in CHARGE_PACKAGES:
            continue
        name = info.node.name
        if name.startswith("_") or info.is_property:
            continue
        reason = project.touches(info)
        if reason is None:
            continue
        if project.reaches_charge(info):
            continue
        findings.append(
            Finding(
                rule=NAME,
                path=info.module.path,
                line=info.node.lineno,
                col=info.node.col_offset,
                message=(
                    f"{info.qualname}() {reason} but cannot reach "
                    "charge_ms/charge_us/charge_s, an add into the "
                    "clock's bucket map or a CounterSet bump; "
                    "either charge the cost or justify with "
                    "`# simlint: ok[CHARGE] <why it is free>`"
                ),
                symbol=f"{info.module.name}:{info.qualname}",
            )
        )
    return findings
