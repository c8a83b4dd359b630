"""A dropped database is freed at its last reference.

Nothing a database owns holds the database, or anything else that owns
it, strongly (docs/architecture.md, "Who may hold whom"):

* a buffer cache is handed the system's write-back with each insert and
  keeps no reference to it;
* a persistent collection holds its database weakly;
* a handle holds its table, so the table is emptied when the database
  dies.

Each case runs with the cyclic collector off.  The weak reference to
the dropped database must be dead right after ``del``, and a full
collection must then find no ``repro`` object to free: one cycle left
anywhere in the graph keeps the rest waiting for the collector, which a
harness dropping a database per op would otherwise have to run.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.bench import ExperimentRunner
from repro.bench.figures import FigureDriver
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.oql import Catalog, OQLEngine
from repro.service import QueryService
from repro.simtime.host import collector_paused

#: 200 providers and 600 patients: the patient extent spills a chunk,
#: so the collections file exists.
SCALE = 0.0002

SELECTION = "select p.age from p in Patients where p.mrn < 20"


def _config() -> DerbyConfig:
    return DerbyConfig.db_1to3(scale=SCALE)


def _index_first():
    return load_derby(_config())


def _index_after():
    return load_derby(replace(_config(), index_first=False))


def _logged():
    return load_derby(replace(_config(), logged_load=True))


def _two_cold_joins():
    derby = load_derby(_config())
    runner = ExperimentRunner(derby)
    runner.run_join("NL", 10, 10)
    runner.run_join("PHJ", 90, 90)
    return derby


def _one_statement():
    derby = load_derby(_config())
    rows = OQLEngine(Catalog.from_derby(derby)).execute(SELECTION)
    assert rows
    return derby


def _repro_garbage() -> list[str]:
    """The ``repro`` types a full collection would free now, kept for
    the assertion instead of freed."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize(
    "make",
    [_index_first, _index_after, _logged, _two_cold_joins, _one_statement],
    ids=["index-first", "index-after", "logged", "two-cold-joins", "oql"],
)
def test_a_dropped_database_leaves_nothing_for_the_collector(make):
    gc.collect()  # what earlier tests left is not this case's
    with collector_paused():
        derby = make()
        dropped = weakref.ref(derby.db)
        del derby
        assert dropped() is None, "the database outlived its last reference"
        assert _repro_garbage() == []


def test_a_service_statement_frees_its_cursor_when_closed():
    """The session's close hook captures the cursor; the cursor drops
    the hook as it fires, so the operator tree goes with the cursor."""
    session = QueryService(load_derby(_config())).open_session()
    with collector_paused():
        cursor = session.execute_iter(SELECTION)
        assert cursor.drain()
        closed = weakref.ref(cursor)
        del cursor
        assert closed() is None
        assert session.metrics.rows > 0  # the hook did fire


def test_the_figure_driver_frees_the_database_it_lets_go():
    """With the collector off, the driver's previous database is gone
    once the next one is loaded: nothing collects between them."""
    driver = FigureDriver(SCALE)
    with collector_paused():
        previous = weakref.ref(driver.derby("1:3", "class").db)
        driver.derby("1:3", "composition")
        assert previous() is None
