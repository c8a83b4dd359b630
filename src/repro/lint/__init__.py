"""simlint — the reproduction's invariant linter.

The simulator's guarantees rest on properties no unit test can cover
exhaustively, so this package checks them statically, as AST rules over
``src/repro/``:

``DET``
    Bit-determinism: no wall-clock time, no unseeded randomness, no
    ``id()`` ordering, no iteration over sets into ordered output.
``CHARGE``
    Cost completeness: code in the storage/buffer/exec/objects
    substrates that touches pages, handles or RPC paths must reach a
    ``SimClock.charge_*`` call or a ``CounterSet`` bump.
``LAYER``
    The architecture doc's import DAG (simtime → storage → buffer →
    objects → ... → service) stays acyclic.
``PAIR``
    Paired resources (``load``/``unref``, ``acquire``/``release_all``)
    are released on every exit path.
``EXC``
    No over-broad ``except`` that can swallow ``repro.errors`` types.
``ATOM``
    No read-modify-write of shared server-tier state across a
    may-yield call without a critical bracket.
``PROTO``
    Protocol state machines: transaction lifecycle, the WAL force rule,
    the 2PC decision-log discipline.
``ESCAPE``
    A borrowed handle does not outlive its ``with`` block.

Run it as ``python -m repro lint`` (or ``make lint``); configuration
lives in ``pyproject.toml`` under ``[tool.simlint]``.  Findings can be
suppressed line-by-line with ``# simlint: ok[RULE] justification``.
See ``docs/lint.md`` for the rules and the invariants they protect.

This package deliberately imports nothing from the rest of ``repro``
(the linter must not depend on the code it judges).
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.findings import Finding
from repro.lint.report import render_json, render_text
from repro.lint.runner import LintResult, lint_paths

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "lint_paths",
    "load_config",
    "render_json",
    "render_text",
]
