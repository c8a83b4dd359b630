"""The collector bracket: ``repro.simtime.host``.

``generate`` and ``load_derby`` run with CPython's cyclic collector
paused (they allocate a database's worth of live objects and no
garbage).  The bracket must hand the collector back exactly as it found
it -- on return, on raise, nested, and to a caller who had switched it
off -- and it must be the only place in ``src/repro`` that touches it.
"""

from __future__ import annotations

import gc
import pathlib
import re

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.generator import generate
from repro.simtime.host import collector_paused
from repro.objects.database import PersistentCollection

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Run the test with the collector in each state; put it back."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if before else gc.disable)()


class TestBracket:
    def test_paused_inside_and_restored_on_return(self, collector):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is collector

    def test_restored_on_raise(self, collector):
        with pytest.raises(ZeroDivisionError):
            with collector_paused():
                1 / 0
        assert gc.isenabled() is collector

    def test_nested_brackets_stay_paused_until_the_outermost(self, collector):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner one found it disabled
        assert gc.isenabled() is collector

    def test_as_a_decorator_it_is_a_fresh_bracket_per_call(self, collector):
        @collector_paused()
        def probe() -> bool:
            return gc.isenabled()

        assert probe() is False
        assert gc.isenabled() is collector
        assert probe() is False  # a one-shot generator would raise here
        assert gc.isenabled() is collector


def _tiny() -> DerbyConfig:
    return DerbyConfig.db_1to3(scale=0.0002)


class TestLoadAndGenerate:
    def test_generate_leaves_the_collector_as_found(self, collector):
        generate(_tiny())
        assert gc.isenabled() is collector

    def test_load_leaves_the_collector_as_found(self, collector):
        load_derby(_tiny())
        assert gc.isenabled() is collector

    def test_a_load_that_raises_mid_batch_does_too(self, collector, monkeypatch):
        """The existing abort path: the open batch transaction is
        aborted, the error propagates, the collector is back.  The
        error is raised where the create kernel hands the 100th object's
        rid to its collection, a call it makes once per object."""
        append, calls = PersistentCollection.append, []

        def failing_append(self, rid):
            calls.append(1)
            if len(calls) == 100:
                raise RuntimeError("disk on fire")
            return append(self, rid)

        monkeypatch.setattr(PersistentCollection, "append", failing_append)
        with pytest.raises(RuntimeError, match="disk on fire"):
            load_derby(_tiny())
        assert gc.isenabled() is collector

    def test_no_full_collection_runs_inside_a_load(self):
        """No generation-2 collection, which walks the whole database to
        free nothing; of the young ones only what the first allocation
        after the bracket owes (with the collector on, this load runs
        28 / 3 / 0 of them; at scale 0.2, 3,104 / 282 / 6)."""
        config = DerbyConfig.db_1to3(scale=0.002)  # 8,000 objects
        before = gc.isenabled()
        gc.enable()
        try:
            logical = generate(config)
            then = [g["collections"] for g in gc.get_stats()]
            load_derby(config, logical=logical)
            now = [g["collections"] for g in gc.get_stats()]
        finally:
            (gc.enable if before else gc.disable)()
        assert now[2] == then[2]
        assert now[0] - then[0] <= 1 and now[1] - then[1] <= 1


def test_one_module_of_src_names_the_collector():
    """``gc`` is imported, and ``gc.`` referenced, in the host module and
    nowhere else under ``src/repro`` (simlint DET holds the calls; this
    holds the name)."""
    named = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"\bgc\.|^\s*(import gc\b|from gc import)", path.read_text(), re.M)
    }
    assert named == {"simtime/host.py"}
