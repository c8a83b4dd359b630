"""Stateful testing of the handle table: refcount and sharing invariants,
and the delayed-free FIFO, under arbitrary get/unreference interleavings.

The model keeps the parked rids in the order they parked.  After every
step the table must hold exactly the handles the model says it holds,
have allocated exactly as often, and have charged exactly the HANDLE
seconds the model adds up -- so a table that evicts any parked handle
but the oldest, revives a handle it should have dropped, or drops one it
should have revived, is caught on the step it happens."""

from __future__ import annotations

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.objects import AttrKind, AttributeDef, Database, HandleTable, Schema
from repro.objects.handle import _TOUCH_FRACTION
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.rid import Rid
from repro.units import US_PER_S

_RIDS = st.integers(min_value=0, max_value=9)
#: Parked handles the table keeps before it frees the oldest.
CAPACITY = 3


class HandleMachine(RuleBasedStateMachine):
    """Model: a per-rid reference count for every rid the table holds a
    handle for, the parked ones in parking order, and what each
    operation allocates and charges."""

    @initialize()
    def setup(self):
        schema = Schema()
        cls = schema.define("T", [AttributeDef("x", AttrKind.INT32)])
        self.loader = lambda: (b"\x01\x01\x00\x00\x00", cls)
        params = CostParams()
        self.clock = SimClock()
        self.table = HandleTable(
            self.clock, params, CounterSet(), delayed_free_capacity=CAPACITY
        )
        self.alloc_s = params.handle_get_us / US_PER_S
        self.touch_s = params.handle_get_us * _TOUCH_FRACTION / US_PER_S
        self.unref_s = params.handle_unref_us / US_PER_S
        #: rid -> references, for every rid with a handle (0: parked).
        self.refcounts: dict[int, int] = {}
        self.handles: dict[int, object] = {}
        #: Parked rids, oldest first: the next one freed is ``parked[0]``.
        self.parked: list[int] = []
        #: rid -> the handle the table last freed for it.
        self.freed: dict[int, object] = {}
        self.allocated = 0
        self.handle_s = 0.0

    @rule(n=_RIDS)
    def get(self, n):
        handle = self.table.get(Rid(0, n, 0), self.loader)
        if n in self.handles:
            # Live or parked: shared, not duplicated.
            assert handle is self.handles[n]
            if n in self.parked:
                self.parked.remove(n)
            self.handle_s += self.touch_s
        else:
            # Never held or freed: a new handle.
            assert handle is not self.freed.get(n)
            self.handles[n] = handle
            self.refcounts[n] = 0
            self.allocated += 1
            self.handle_s += self.alloc_s
        self.refcounts[n] += 1
        assert handle.refcount == self.refcounts[n]

    @precondition(lambda self: any(getattr(self, "refcounts", {}).values()))
    @rule(data=st.data())
    def unreference(self, data):
        live = [n for n, c in self.refcounts.items() if c > 0]
        n = data.draw(st.sampled_from(live))
        self.table.unreference(self.handles[n])
        self.handle_s += self.unref_s
        self.refcounts[n] -= 1
        if self.refcounts[n] == 0:
            self.parked.append(n)
            if len(self.parked) > CAPACITY:
                oldest = self.parked.pop(0)
                self.freed[oldest] = self.handles.pop(oldest)
                del self.refcounts[oldest]

    @invariant()
    def live_count_matches_model(self):
        if not hasattr(self, "table"):
            return
        model_live = sum(1 for c in self.refcounts.values() if c > 0)
        assert self.table.live_count == model_live

    @invariant()
    def parked_rids_match_model(self):
        """Which rids are parked, found on a copy of the table: a ``get``
        that allocates nothing hit a handle, and no ``get`` frees one."""
        if not hasattr(self, "table"):
            return
        assert self.table.parked_count == len(self.parked) <= CAPACITY
        probe = copy.deepcopy(self.table)
        held = set()
        for n in range(10):
            before = probe.counters.handles_allocated
            probe.get(Rid(0, n, 0), self.loader)
            if probe.counters.handles_allocated == before:
                held.add(n)
        live = {n for n, c in self.refcounts.items() if c > 0}
        assert held - live == set(self.parked)
        assert held & live == live

    @invariant()
    def allocations_and_charges_match_model(self):
        if not hasattr(self, "table"):
            return
        assert self.table.counters.handles_allocated == self.allocated
        assert self.clock.bucket_s(Bucket.HANDLE) == self.handle_s

    @invariant()
    def refcounts_positive_for_live(self):
        if not hasattr(self, "table"):
            return
        for n, count in self.refcounts.items():
            if count > 0:
                assert self.handles[n].refcount == count


HandleMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
TestHandleStateful = HandleMachine.TestCase


def test_write_back_keeps_cached_handles_in_step():
    """A mutation's write-back: a live handle takes the new record and
    class; a parked one of the same class takes the record and is the one
    the next bracket revives; a parked one whose class changed is freed,
    and the next bracket allocates afresh."""
    schema = Schema()
    schema.define(
        "Patient",
        [AttributeDef("name", AttrKind.STRING), AttributeDef("mrn", AttrKind.INT32)],
    )
    db = Database(schema)
    db.create_file("patients")
    om = db.manager
    live_rid, same_rid, changed_rid = (
        db.create_object("Patient", {"name": "p", "mrn": mrn}, "patients")
        for mrn in (1, 2, 3)
    )
    with om.borrow(same_rid) as same:
        assert om.get_attr(same, "mrn") == 2
    with om.borrow(changed_rid) as changed:
        assert om.get_attr(changed, "mrn") == 3
    evolved = schema.evolve(
        "Patient", [AttributeDef("age", AttrKind.INT32, default=7)]
    )

    with om.borrow(live_rid) as live:
        allocated = db.counters.handles_allocated
        where = om.upgrade_record(live_rid)
        assert live.class_def is evolved
        assert live.record == om.read_record(where)[0]
        assert om.get_attr(live, "age") == 7
    assert db.handles.parked_count == 3

    om.update_scalar(same_rid, "mrn", 20)
    assert db.handles.parked_count == 3
    with om.borrow(same_rid) as revived:
        assert revived is same
        assert om.get_attr(revived, "mrn") == 20

    om.upgrade_record(changed_rid)
    assert db.handles.parked_count == 2
    with om.borrow(changed_rid) as fresh:
        assert fresh is not changed
        assert fresh.class_def is evolved
        assert om.get_attr(fresh, "mrn") == 3
    assert db.counters.handles_allocated == allocated + 1
