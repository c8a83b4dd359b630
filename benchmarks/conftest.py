"""Shared fixtures for the figure benchmarks.

Databases are expensive to build and large, so the session shares one
:class:`~repro.bench.figures.FigureDriver`: it holds the database asked
for last and nothing else (the paper's authors "kept deleting and
re-creating databases" for the same reason), and keeps each database's
sixteen grid measurements.  Each measured run starts from a cold cache
anyway (``start_cold_run``), exactly as the paper ran its experiments.

Scale defaults to 1/100 of the paper's databases and can be overridden
with the ``REPRO_SCALE`` environment variable.  Every table is written
to ``results/`` at the default scale and to ``results/scale_<s>/`` at
any other, so the committed scale-0.01 files are never overwritten by a
run at another scale.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.figures import FigureDriver
from repro.derby.config import DEFAULT_SCALE, default_scale

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def figure_driver():
    return FigureDriver()


@pytest.fixture(scope="session")
def derby_cache(figure_driver):
    """``get(relationship, organization)``: that database, loaded; the
    one handed out before it is no longer held."""
    return figure_driver.derby


@pytest.fixture(scope="session")
def join_measurements(figure_driver):
    """``get(relationship, organization)``: the full selectivity-grid
    measurements, run once per session."""
    return figure_driver.grid


def write_table(name: str, table) -> str:
    """Write a rendered table under results/ (scale_<s>/ below it when
    ``REPRO_SCALE`` is not the default)."""
    scale = default_scale()
    directory = (
        RESULTS_DIR if scale == DEFAULT_SCALE
        else RESULTS_DIR / f"scale_{scale:g}"
    )
    directory.mkdir(parents=True, exist_ok=True)
    text = str(table)
    (directory / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


@pytest.fixture(scope="session")
def save_table():
    return write_table
