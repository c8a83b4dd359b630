"""Stateful testing of the handle table: refcount and sharing invariants,
and the delayed-free FIFO, under arbitrary interleavings of the bracket
that drives it -- ``om.borrow`` (get handle), ``get_attr`` and
``Handle.__exit__`` (unreference).

The model keeps the parked rids in the order they parked.  After every
step the table must hold exactly the handles the model says it holds,
have allocated exactly as often, and have charged exactly the HANDLE
and CPU seconds the model adds up -- so a table that evicts any parked
handle but the oldest, revives a handle it should have dropped, or drops
one it should have revived, is caught on the step it happens."""

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

from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.objects.codec import InlineSet
from repro.objects.handle import TOUCH_FRACTION
from repro.objects.header import ObjectHeader
from repro.simtime import Bucket, CostParams
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
        schema.define("T", [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("s", AttrKind.STRING),
        ])
        self.db = db = Database(schema)
        db.create_file("t")
        self.rids = [
            db.create_object("T", {"x": n, "s": f"s{n}"}, "t") for n in range(10)
        ]
        for rid in self.rids:
            db.manager.read_record(rid)  # pages cached: a miss reads free
        db.handles.delayed_free_capacity = CAPACITY
        db.handles.clear()
        db.reset_meters()
        self.om, self.table, self.clock = db.manager, db.handles, db.clock
        params = CostParams()
        self.alloc_s = params.handle_get_us / US_PER_S
        self.touch_s = params.handle_get_us * TOUCH_FRACTION / US_PER_S
        self.unref_s = params.handle_unref_us / US_PER_S
        self.decode_s = params.attr_decode_us / US_PER_S
        self.literal_s = (params.handle_get_us + params.handle_unref_us) / US_PER_S
        #: rid -> references, for every rid with a handle (0: parked).
        self.refcounts: dict[int, int] = {}
        self.handles: dict[int, object] = {}
        #: Parked rids, oldest first: the next one freed is ``parked[0]``.
        self.parked: list[int] = []
        #: rid -> the handle the table last freed for it.
        self.freed: dict[int, object] = {}
        self.allocated = 0
        self.handle_s = 0.0
        self.cpu_s = 0.0

    @rule(n=_RIDS)
    def get(self, n):
        handle = self.om.borrow(self.rids[n])
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
    @rule(data=st.data(), name=st.sampled_from(["x", "s"]))
    def get_attr(self, data, name):
        """A read through a live handle: its decode, and for the string
        the FULL literal handle's get + unreference pair."""
        live = [n for n, c in self.refcounts.items() if c > 0]
        n = data.draw(st.sampled_from(live))
        value = self.om.get_attr(self.handles[n], name)
        assert value == (n if name == "x" else f"s{n}")
        self.cpu_s += self.decode_s
        if name == "s":
            self.allocated += 1
            self.handle_s += self.literal_s

    @precondition(lambda self: any(getattr(self, "refcounts", {}).values()))
    @rule(data=st.data())
    def unreference(self, data):
        live = [n for n, c in self.refcounts.items() if c > 0]
        n = data.draw(st.sampled_from(live))
        self.handles[n].__exit__(None, None, None)
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
        """Which rids are parked, found on a copy of the database: a
        ``borrow`` that allocates nothing hit a handle, and no ``borrow``
        frees one."""
        if not hasattr(self, "table"):
            return
        assert self.table._parked_count == len(self.parked) <= CAPACITY
        probe = copy.deepcopy(self.db)
        held = set()
        for n, rid in enumerate(self.rids):
            before = probe.counters.handles_allocated
            probe.manager.borrow(rid)
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
        assert self.clock.buckets.get(Bucket.HANDLE, 0.0) == self.handle_s
        assert self.clock.buckets.get(Bucket.CPU, 0.0) == self.cpu_s

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


def _write_back_case(db, live_rid, parked_rid, write):
    """Park a handle for ``parked_rid``, hold one for ``live_rid``, and
    ``write``: the live handle takes the record now stored, the parked
    one is the handle the next bracket revives and carries it too, and no
    handle is allocated."""
    om = db.manager
    with om.borrow(parked_rid) as parked:
        stale = parked.record
    with om.borrow(live_rid) as live:
        allocated = db.counters.handles_allocated
        write()
        assert live.record == om.read_record(live_rid)[0]
    with om.borrow(parked_rid) as revived:
        assert revived is parked
        assert revived.record == om.read_record(parked_rid)[0] != stale
    assert db.counters.handles_allocated == allocated


def _patients_and_providers() -> Database:
    schema = Schema()
    schema.define(
        "Patient",
        [AttributeDef("name", AttrKind.STRING), AttributeDef("mrn", AttrKind.INT32)],
    )
    schema.define(
        "Provider",
        [
            AttributeDef("upin", AttrKind.INT32),
            AttributeDef("clients", AttrKind.REF_SET, target="Patient"),
        ],
    )
    db = Database(schema)
    db.create_file("patients")
    db.create_file("providers")
    return db


def test_write_back_keeps_cached_handles_in_step():
    """A rewrite in place -- a scalar, index slots added to a header --
    reaches every cached handle of the record."""
    db = _patients_and_providers()
    om = db.manager
    a, b, c, d = (
        db.create_object("Patient", {"name": "p", "mrn": mrn}, "patients")
        for mrn in range(4)
    )

    def scalars():
        om.update_scalar(a, "mrn", 10)
        om.update_scalar(b, "mrn", 20)

    _write_back_case(db, a, b, scalars)
    assert (om.get_attr_at(a, "mrn"), om.get_attr_at(b, "mrn")) == (10, 20)

    def slots():
        # the header pass of an index on the two: no free slot, so each
        # header grows, and a cached handle sends it down the write-back
        assert om.stamp_index((c, d), 1, "mrn", []) == (2, 2)

    _write_back_case(db, c, d, slots)
    for rid in (c, d):
        assert ObjectHeader.decode(om.read_record(rid)[0]).index_ids == [1]
    assert (om.get_attr_at(c, "mrn"), om.get_attr_at(d, "mrn")) == (2, 3)


def test_write_back_reaches_both_forwarded_addresses():
    """A record that grew off its page is cached under two addresses: the
    one its references hold and the one it lives at.  A rewrite through
    either reaches the handle under the other, so neither reads the set
    back stale."""
    db = _patients_and_providers()
    om = db.manager
    first, *__ = [
        db.create_object("Provider", {"upin": i}, "providers") for i in range(120)
    ]
    members = tuple(Rid(0, i, 0) for i in range(300))
    actual = om.update_set(first, "clients", InlineSet(members))
    assert actual != first  # grew off its page: forwarded
    for address in (first, actual):  # parks a handle under each
        assert om.get_attr_at(address, "clients").rids == members
    others = tuple(Rid(1, i, 0) for i in range(300))
    _write_back_case(
        db, first, actual,
        lambda: om.update_set(first, "clients", InlineSet(others)),
    )
    for address in (first, actual):
        with om.borrow(address) as handle:
            assert om.get_attr(handle, "clients").rids == others
