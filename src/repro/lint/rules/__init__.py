"""The rule registry.

Every rule is a module exposing ``NAME`` (the code that appears in
findings and suppressions) and ``check(project, config)`` returning a
list of :class:`~repro.lint.findings.Finding`.  Rules never see
suppressions — the runner filters their output.
"""

from __future__ import annotations

from repro.lint.rules import atom, charge, det, escape, exc, layer, pair, proto

#: name -> rule module, in report-priority order.
ALL_RULES = {
    module.NAME: module
    for module in (det, charge, layer, pair, exc, atom, proto, escape)
}

__all__ = ["ALL_RULES"]
