"""Shared fixtures for the benches.

Databases are expensive to build and large, so the session shares one
:class:`~repro.bench.figures.FigureDriver`: it holds the database asked
for last, with the one runner over it, and nothing else (the paper's authors "kept deleting and
re-creating databases" for the same reason), and keeps each database's
sixteen grid measurements.  Each measured run starts from a cold cache
anyway (``start_cold_run``), exactly as the paper ran its experiments.

Scale defaults to 1/100 of the paper's databases and can be overridden
with the ``REPRO_SCALE`` environment variable.  Every table is written
to ``results/`` at the default scale and to ``results/scale_<s>/`` at
any other, so the committed scale-0.01 files are never overwritten by a
run at another scale.  The gated benches (optimizer, MVCC, sharding,
replication) run at their own fixed scale and also write one
``BENCH_<name>.json`` at the repository root.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.figures import FigureDriver
from repro.derby.config import DEFAULT_SCALE, default_scale

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


@pytest.fixture(scope="session")
def figure_driver():
    return FigureDriver()


def write_table(name: str, table) -> str:
    """Write a rendered table under results/ (scale_<s>/ below it when
    ``REPRO_SCALE`` is not the default): ``<name>.txt``, or ``<name>``
    itself when it carries the ``.csv`` suffix."""
    scale = default_scale()
    directory = (
        RESULTS_DIR if scale == DEFAULT_SCALE
        else RESULTS_DIR / f"scale_{scale:g}"
    )
    directory.mkdir(parents=True, exist_ok=True)
    text = str(table)
    file_name = name if name.endswith(".csv") else f"{name}.txt"
    (directory / file_name).write_text(text)
    print("\n" + text)
    return text


@pytest.fixture(scope="session")
def save_table():
    return write_table


@pytest.fixture(scope="session")
def save_json():
    """``save(name, payload)``: write ``BENCH_<name>.json`` at the
    repository root."""
    def save(name: str, payload: dict) -> None:
        path = REPO_ROOT / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
    return save


def same_rows(base: list, rows: list, ordered: bool) -> bool:
    """Whether ``rows`` is the answer ``base`` is: the same list when
    the query is ordered, the same multiset otherwise."""
    if ordered:
        return rows == base
    return sorted(map(repr, rows)) == sorted(map(repr, base))
