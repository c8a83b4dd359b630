"""Pinned simulated outcomes of the executor at tier-1 scale.

ROADMAP's invariant is that *simulated outputs are the semantic check*:
rows, ``elapsed_s``, bucket breakdowns and meter snapshots stay
bit-identical across every refactor.  ``benchmarks/wallclock/expected.json``
holds that for the four wall-clock workloads and ``chaos_digests.json``
for the fault suites; this file holds it for the executor itself, cell by
cell, small enough to run in tier-1.  ``exec_pins.json`` keeps, for both
Derby databases under all four clusterings, each run cold:

* every ``ALGORITHMS`` key at every ``SELECTIVITY_GRID`` pair
  (over ``ExperimentRunner.tree_query``);
* ``ExperimentRunner.run_selection`` by scan / index / sorted-index at
  10 % and 90 %;
* nine OQL texts -- ``distinct``, ``distinct ... limit 7``, a scan under
  ``limit 5``, ``order by``, an aggregate, a tree join under ``limit 3``
  and ``limit 0``, ``explain`` -- through
  ``execute_iter(text, batch_size).drain()`` at batch sizes 1 / 7 / 256.

A cell is its row count, an order-insensitive and an ordered row
checksum, ``elapsed_s``, ``breakdown()`` in first-charge order and the
non-zero meters -- the values, not a hash of them, so a moved pin says
which bucket or meter moved.  Floats are JSON numbers: ``json`` writes
``repr(float)`` and reads it back exactly, and they are compared ``==``.

A change that means to alter what the executor charges regenerates the
table and says so; any other change must leave it alone::

    PYTHONPATH=src python tests/test_exec_pins.py --update
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import asdict

import pytest

from repro.bench import SELECTIVITY_GRID, ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.exec import ALGORITHMS
from repro.oql import Catalog, OQLEngine

PINS_PATH = pathlib.Path(__file__).parent / "exec_pins.json"

#: 1,000 providers x 3,000 patients; 2 providers x 2,000 patients.
SCALE = 0.001
DATABASES = {
    "1to3": DerbyConfig.db_1to3,
    "1to1000": DerbyConfig.db_1to1000,
}
GROUPS = [
    (database, clustering)
    for database in DATABASES
    for clustering in Clustering
]

SELECTION_METHODS = ("scan", "index", "sorted-index")
SELECTION_PCTS = (10, 90)
BATCH_SIZES = (1, 7, 256)

_TREE_JOIN = (
    "select tuple(a: pa.age, n: p.name) "
    "from p in Providers, pa in p.clients "
    "where pa.mrn < {mrn30} and p.upin < {upin50}"
)
_DISTINCT = "select distinct p.age from p in Patients where p.mrn < {mrn40}"
_INDEXED = "select p.age from p in Patients where p.num > {num30}"
OQL_TEXTS = {
    "indexed": _INDEXED,
    "distinct": _DISTINCT,
    "distinct-limit-7": _DISTINCT + " limit 7",
    "scan-limit-5": "select p.mrn from p in Patients where p.age >= 0 limit 5",
    "order-by": (
        "select tuple(m: p.mrn, a: p.age) from p in Patients "
        "where p.age < 50 order by p.age desc, p.mrn"
    ),
    "aggregate": "select avg(p.age) from p in Patients where p.mrn < {mrn40}",
    "join-limit-3": _TREE_JOIN + " limit 3",
    "join-limit-0": _TREE_JOIN + " limit 0",
    "explain": "explain " + _INDEXED,
}


def group_key(database: str, clustering: Clustering) -> str:
    return f"{database}/{clustering.value}"


def _checksums(rows: list) -> tuple[str, str]:
    """(order-insensitive, ordered) fingerprints of a row list."""
    texts = [repr(row) for row in rows]
    return tuple(
        hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        for lines in (sorted(texts), texts)
    )


def _cost(elapsed_s: float, breakdown: dict, meters) -> dict:
    """The simulated cost of one run: the non-zero meters only."""
    return {
        "elapsed_s": elapsed_s,
        "breakdown": breakdown,
        "meters": {name: n for name, n in asdict(meters).items() if n},
    }


def _cell(db, rows: list) -> dict:
    """What is pinned of one cold run that just ended on ``db``."""
    unordered, ordered = _checksums(rows)
    return {
        "rows": len(rows),
        "checksum": unordered,
        "ordered": ordered,
        **_cost(db.clock.elapsed_s, db.clock.breakdown(), db.counters.snapshot()),
    }


def measure_group(database: str, clustering: Clustering) -> dict[str, dict]:
    """Load one database and run every cell on it, each one cold."""
    derby = load_derby(DATABASES[database](scale=SCALE, clustering=clustering))
    db = derby.db
    config = derby.config
    runner = ExperimentRunner(derby)
    cells: dict[str, dict] = {}

    for sel_patients, sel_providers in SELECTIVITY_GRID:
        for algorithm in ALGORITHMS:
            derby.start_cold_run()
            rows = ALGORITHMS[algorithm](
                runner.tree_query(sel_patients, sel_providers)
            )
            cells[f"join/{algorithm}/{sel_patients}/{sel_providers}"] = _cell(
                db, rows
            )

    for method in SELECTION_METHODS:
        for pct in SELECTION_PCTS:
            measured = runner.run_selection(method, pct)
            cells[f"select/{method}/{pct}"] = {
                "rows": measured.rows,
                **_cost(measured.elapsed_s, measured.breakdown, measured.meters),
            }

    engine = OQLEngine(Catalog.from_derby(derby))
    bounds = {
        "num30": config.num_threshold(30),
        "mrn30": config.mrn_threshold(30),
        "mrn40": config.mrn_threshold(40),
        "upin50": config.upin_threshold(50),
    }
    for name, template in OQL_TEXTS.items():
        text = template.format(**bounds)
        for batch_size in BATCH_SIZES:
            derby.start_cold_run()
            rows = engine.execute_iter(text, batch_size).drain()
            cells[f"oql/{name}/{batch_size}"] = _cell(db, rows)
    return cells


def differences(actual: dict[str, dict], pinned: dict[str, dict]) -> list[str]:
    """One line per value that differs, naming the cell and the value.
    Breakdowns compare as ordered pairs: first-charge order decides the
    order ``elapsed_s`` sums in."""
    lines = []
    for key in sorted(set(actual) | set(pinned)):
        if key not in actual or key not in pinned:
            lines.append(f"{key}: {'not pinned' if key in actual else 'not run'}")
            continue
        got, want = actual[key], pinned[key]
        for field in sorted(set(got) | set(want)):
            a, b = got.get(field), want.get(field)
            if field == "breakdown" and a and b and list(a) != list(b):
                lines.append(
                    f"{key}: bucket order {list(a)} != pinned {list(b)}"
                )
            if isinstance(a, dict) and isinstance(b, dict):
                for name in sorted(set(a) | set(b)):
                    if a.get(name) != b.get(name):
                        lines.append(
                            f"{key}: {field}[{name}] {a.get(name)!r} "
                            f"!= pinned {b.get(name)!r}"
                        )
            elif a != b:
                lines.append(f"{key}: {field} {a!r} != pinned {b!r}")
    return lines


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize(
    "group", GROUPS, ids=[group_key(*group) for group in GROUPS]
)
def test_exec_pins(pins, group):
    key = group_key(*group)
    assert key in pins, f"no pins for {key}: run this file with --update"
    moved = differences(measure_group(*group), pins[key])
    assert not moved, (
        f"{len(moved)} pinned executor value(s) of {key} moved:\n  "
        + "\n  ".join(moved[:40])
        + "\nIf the executor's charges were meant to change, regenerate with\n"
        "    PYTHONPATH=src python tests/test_exec_pins.py --update\n"
        "and declare the change; otherwise this is a regression."
    )


def test_every_pinned_group_has_a_case(pins):
    assert sorted(pins) == sorted(group_key(*group) for group in GROUPS)
    cells_per_group = (
        len(ALGORITHMS) * len(SELECTIVITY_GRID)
        + len(SELECTION_METHODS) * len(SELECTION_PCTS)
        + len(OQL_TEXTS) * len(BATCH_SIZES)
    )
    assert {len(cells) for cells in pins.values()} == {cells_per_group}


def test_comparison_sees_one_ulp_in_one_bucket(pins):
    """Perturb one pinned float by one ulp: exactly that bucket is
    reported, so the pins are compared value by value, not loosely."""
    cells = pins["1to3/class"]
    assert differences(cells, copy.deepcopy(cells)) == []
    nudged = copy.deepcopy(cells)
    breakdown = nudged["join/PHJ/90/90"]["breakdown"]
    breakdown["handle"] = math.nextafter(breakdown["handle"], math.inf)
    moved = differences(cells, nudged)
    assert len(moved) == 1 and "join/PHJ/90/90: breakdown[handle]" in moved[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit(__doc__)
    table = {group_key(*group): measure_group(*group) for group in GROUPS}
    with PINS_PATH.open("w") as out:
        # One cell per line: a moved pin is a one-line diff.
        out.write("{\n")
        for g, (key, cells) in enumerate(table.items()):
            out.write(f" {json.dumps(key)}: {{\n")
            lines = [
                f"  {json.dumps(name)}: {json.dumps(cell)}"
                for name, cell in cells.items()
            ]
            out.write(",\n".join(lines))
            out.write("\n }" + ("," if g < len(table) - 1 else "") + "\n")
        out.write("}\n")
    cells = sum(len(cells) for cells in table.values())
    print(f"wrote {cells} cells in {len(table)} groups to {PINS_PATH}")
