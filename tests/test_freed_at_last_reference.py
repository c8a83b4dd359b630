"""A dropped database, and a finished mix, are freed at their last
reference.

Nothing a database owns holds the database, or anything else that owns
it, strongly (docs/architecture.md, "Who may hold whom"):

* a buffer cache is handed the system's write-back with each insert and
  keeps no reference to it;
* a persistent collection holds its database weakly;
* a handle holds its table, so the table is emptied when the database
  dies.

The same holds one layer up, for the service graph a mix builds:

* a session holds its service weakly, and its handle table is emptied
  when the session dies;
* the scheduler holds the service's switch hook, and the lock manager
  the scheduler's wait hooks, only while the scheduler runs;
* a task drops its body once it has run, and the frames of a task's
  error are cleared once its thread is joined (and no task body is a
  closure over its mixer: a cleared frame still holds its function);
* the error a failed run raises is taken off its task first, so the
  frames it passes through on the way out hold no task that holds it.

Each case runs with the cyclic collector off.  The weak reference to
the dropped database, service or workload must be dead right after
``del``, and a full collection must then find no ``repro`` object to
free: one cycle left anywhere in the graph keeps the rest waiting for
the collector, which a harness dropping a database or a mix per op
would otherwise have to run.
"""

from __future__ import annotations

import gc
import inspect
import traceback
import weakref
from dataclasses import replace
from functools import partial

import pytest

from repro.bench import ExperimentRunner
from repro.bench.figures import FigureDriver
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.dist import ShardedMixConfig, ShardedWorkload, load_sharded
from repro.dist.twopc import TwoPCInjector
from repro.errors import DistError, ServiceError
from repro.oql import Catalog, OQLEngine
from repro.recovery import CrashInjector
from repro.service import MixConfig, QueryService, WorkloadMixer
from repro.simtime.host import collector_paused
from repro.txn.locks import youngest_in_cycle

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
    service = QueryService(load_derby(_config()))  # a session holds it weakly
    session = service.open_session()
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


# ------------------------------------------------------------------ mixes

#: Three updaters on four hot patients: lock waits and, under both
#: isolations, a deadlock victim raised at its wait point.
MIX = MixConfig(
    navigators=1, scanners=1, updaters=3, ops_per_client=3, seed=7,
    max_retries=8, hot_set=4,
)
#: A cross-shard deadlock victim too.
SHARDED_MIX = ShardedMixConfig(
    scanners=1, updaters=2, ops_per_client=3, seed=7, max_retries=8
)


def _mix(isolation: str) -> QueryService:
    mixer = WorkloadMixer(load_derby(_config()), replace(MIX, isolation=isolation))
    assert mixer.run().deadlocks
    return mixer.service


def _crashed_mix():
    injector = CrashInjector("mix-run", occurrence=8)
    mixer = WorkloadMixer(load_derby(_config()), MIX, injector=injector)
    assert mixer.run().crashed
    mixer.service.recover()
    return mixer.service


def _sharded_mix():
    workload = ShardedWorkload(load_sharded(_config(), 2), SHARDED_MIX)
    assert workload.run().deadlocks
    return workload


def _failed_mix():
    """An updater with one hot patient fails its first op; the run
    raises that error, and the caller catches it."""
    mixer = WorkloadMixer(
        load_derby(_config()),
        MixConfig(navigators=0, scanners=0, updaters=1, hot_set=1),
    )
    with pytest.raises(ServiceError, match="two hot patients"):
        mixer.run()
    return mixer.service


def _failed_sharded_mix():
    workload = ShardedWorkload(
        load_sharded(_config(), 2),
        ShardedMixConfig(scanners=0, updaters=1, hot_set=1),
    )
    with pytest.raises(DistError, match="two hot patients"):
        workload.run()
    return workload


def _crashed_sharded_mix():
    cluster = load_sharded(_config(), 2)
    TwoPCInjector("2pc-before-decision", occurrence=1).arm(cluster)
    workload = ShardedWorkload(cluster, SHARDED_MIX)
    assert workload.run().crashed
    cluster.crash()
    cluster.recover()
    return workload


@pytest.mark.parametrize(
    "make",
    [partial(_mix, "2pl"), partial(_mix, "si"), _crashed_mix, _sharded_mix,
     _crashed_sharded_mix, _failed_mix, _failed_sharded_mix],
    ids=["2pl", "si", "crashed-and-recovered", "sharded", "sharded-crashed",
         "failed", "sharded-failed"],
)
def test_a_finished_mix_leaves_nothing_for_the_collector(make):
    gc.collect()  # what earlier tests left is not this case's
    with collector_paused():
        owner = make()
        dropped = weakref.ref(owner)
        del owner
        assert dropped() is None, "the mix outlived its last reference"
        assert _repro_garbage() == []


def test_deadlock_detection_leaves_nothing_for_the_collector():
    gc.collect()
    with collector_paused():
        assert youngest_in_cycle({1: {2}, 2: {3}, 3: {1}}) == 3
        assert gc.collect() == 0


def test_a_re_raised_task_error_keeps_its_file_and_line():
    """The scheduler clears a task error's frames after the join; the
    traceback still says where the error was raised."""
    mixer = WorkloadMixer(
        load_derby(_config()),
        MixConfig(navigators=0, scanners=0, updaters=1, hot_set=1),
    )
    with pytest.raises(ServiceError, match="two hot patients") as caught:
        mixer.run()
    lines, first = inspect.getsourcelines(WorkloadMixer._updater_op)
    raising = first + next(
        i for i, line in enumerate(lines) if "raise ServiceError" in line
    )
    last = traceback.extract_tb(caught.value.__traceback__)[-1]
    assert (last.filename, last.lineno, last.name) == (
        inspect.getsourcefile(WorkloadMixer), raising, "_updater_op"
    )
    tb = caught.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_locals == {}  # cleared: it held the session
