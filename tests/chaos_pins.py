"""Pinned chaos digests.

``chaos_digests.json`` holds, for every pinned (suite, case) pair,
``[sha256(repr(result.digest)), result.failures]`` as produced by the
first run of the case.  A refactor of the chaos harnesses must not move
any of them: the digest is the simulated outcome of the case (session
counters, elapsed simulated time, final durable values), so an identical
hash means the case drew the same workload, hit the same fault and
recovered to the same state.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "chaos_digests.json").read_text()
)


def fingerprint(result) -> list:
    """``[digest hash, failures]`` — the shape the table stores."""
    digest = hashlib.sha256(repr(result.digest).encode()).hexdigest()
    return [digest, list(result.failures)]


def assert_pinned(suite: str, results: dict) -> None:
    """Every pinned case of ``suite`` was run and matches the table.
    ``results`` maps the table's case key (``"<seed>"`` or
    ``"<seed>/<point>"``) to the case's result."""
    pinned = _TABLE[suite]
    assert sorted(results) == sorted(pinned)
    moved = {
        key: (fingerprint(result), pinned[key])
        for key, result in results.items()
        if fingerprint(result) != pinned[key]
    }
    assert not moved, f"{suite}: digests moved for cases {sorted(moved)}: {moved}"
