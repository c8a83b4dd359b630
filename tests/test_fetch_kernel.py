"""``ObjectManager.fetch`` against the bracket it replaces.

The kernel runs Figure 8's get-handle / row function / unreference over
a batch of rids, with a handle hit bracketed by hand.  Its contract is
that nothing simulated can tell: the same rid sequence run through the
kernel and through ``with om.borrow(rid)`` brackets, on two databases
built alike, leaves the same handle-map order and refcounts, the same
parked count, the same meters and every bucket bit for bit -- warm,
cold and mixed; with the delayed-free list overflowing and with no list
at all; with nested brackets; with a row function that raises; and
under a snapshot view, with a version read and an object the snapshot
cannot see, which the kernel passes over.
"""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.errors import RecordNotVisibleError
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.simtime import Bucket, meter_values
from repro.txn import TransactionManager

SKIP = object()
_RESULT = Bucket.RESULT
ROW_S = 3.7e-5


def bracketed(om, rids, row_fn, out, room=-1, skip=None, row_s=0.0) -> int:
    """The kernel's contract spelled with ``with om.borrow`` brackets."""
    buckets = om.handles._buckets
    for rid in rids:
        try:
            with om.borrow(rid) as handle:
                row = row_fn(om, handle)
        except RecordNotVisibleError:
            continue
        if row is not skip:
            if row_s:
                buckets[_RESULT] += row_s
            out.append(row)
            room -= 1
            if not room:
                break
    return room


def kernel(om, *args, **kwargs) -> int:
    return om.fetch(*args, **kwargs)


def state(db) -> tuple:
    """Everything the bracket touches, floats as their bit patterns."""
    table = db.handles
    return (
        [(rid, h.refcount, h.record) for rid, h in table._handles.items()],
        table._parked_count,
        sorted((key, h.refcount) for key, h in table._versioned.items()),
        meter_values(db.counters),
        {bucket: db.clock.buckets.get(bucket, 0.0).hex() for bucket in Bucket},
    )


def derbies():
    """Two databases built alike."""
    config = DerbyConfig.db_1to3(scale=0.0001)
    return load_derby(config), load_derby(config)


def compare(worlds, body) -> object:
    """``body(derby, fetch)`` run with the kernel in the first world and
    with the brackets in the second: the answers and the states must
    be equal.  Returns the answer."""
    answers = [
        body(derby, fetch) for derby, fetch in zip(worlds, (kernel, bracketed))
    ]
    assert answers[0] == answers[1]
    assert state(worlds[0].db) == state(worlds[1].db)
    return answers[0]


def age_over(limit):
    def row_fn(om, handle):
        age = om.get_attr(handle, "age")
        return age if age > limit else SKIP
    return row_fn


def warm_up(derby, rids, capacity=None) -> None:
    if capacity is not None:
        derby.db.handles.delayed_free_capacity = capacity
    bracketed(derby.db.manager, rids, lambda om, handle: None, [])


@pytest.mark.parametrize("warm", ["cold", "warm", "mixed"])
@pytest.mark.parametrize("capacity", [None, 7, 0])
def test_the_kernel_charges_and_parks_as_the_brackets_do(warm, capacity):
    def body(derby, fetch):
        rids = derby.patient_rids[:60]
        warm_up(derby, {"cold": [], "warm": rids, "mixed": rids[::2]}[warm],
                capacity)
        out: list = []
        room = fetch(derby.db.manager, rids, age_over(40), out, -1, SKIP,
                     ROW_S)
        return room, out

    room, out = compare(derbies(), body)
    assert out and room == -1 - len(out)


def test_the_kernel_stops_when_the_room_fills():
    def body(derby, fetch):
        warm_up(derby, derby.patient_rids[:20])
        rids = iter(derby.patient_rids[:50])
        out: list = []
        room = fetch(derby.db.manager, rids, age_over(40), out, 5, SKIP,
                     ROW_S)
        return room, out, list(rids)

    room, out, rest = compare(derbies(), body)
    assert room == 0 and len(out) == 5 and rest


def test_nested_kernels_evict_around_the_live_outer_handle():
    """An exists-like row function: each provider's clients are fetched
    inside the provider's bracket, and the delayed-free list overflows
    beneath it.  The first provider's handle is the oldest and is held
    live throughout, so the evictions meet a live handle."""
    def body(derby, fetch):
        db = derby.db

        def any_client_over_60(om, provider):
            clients = db.iter_set_rids(om.get_attr(provider, "clients"))
            return not fetch(om, clients, age_over(60), [], 1, SKIP)

        warm_up(derby, derby.provider_rids[:11], capacity=11)
        held = db.manager.load(derby.provider_rids[0])
        out: list = []
        room = fetch(db.manager, derby.provider_rids[1:40],
                     any_client_over_60, out, -1, False, ROW_S)
        assert next(iter(db.handles._handles.values())) is not held
        db.manager.unref(held)
        return room, out

    room, out = compare(derbies(), body)
    assert out


def test_a_raising_row_function_releases_its_handle():
    def body(derby, fetch):
        warm_up(derby, derby.patient_rids[:10])
        calls = 0

        def boom_on_third(om, handle):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise KeyError("injected")
            return om.get_attr(handle, "age")

        out: list = []
        with pytest.raises(KeyError):
            fetch(derby.db.manager, derby.patient_rids[:10], boom_on_third,
                  out)
        assert derby.db.handles.live_count == 0
        return out

    assert len(compare(derbies(), body)) == 2


def snapshot_world():
    """Eight records; a snapshot taken, then record 0 updated and a ninth
    created and committed behind it."""
    schema = Schema()
    schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
    db = Database(schema)
    db.create_file("things")
    rids = [db.create_object("Thing", {"x": i}, "things") for i in range(8)]
    db.shutdown()
    txm = TransactionManager(db, recovery=True)
    reader = txm.begin(isolation="si")
    writer = txm.begin()
    writer.update_scalar(rids[0], "x", 100)
    rids.append(writer.create_object("Thing", {"x": 8}, "things"))
    writer.commit()
    return db, reader, rids


def test_the_kernel_reads_a_snapshot_as_the_brackets_do():
    answers, states = [], []
    for fetch in (kernel, bracketed):
        db, reader, rids = snapshot_world()
        om = db.manager
        bracketed(om, rids[1:5], lambda o, h: None, [])  # parked handles
        order = [rids[8], *rids[:8], rids[0]]
        out: list = []
        om.read_view = reader.view
        try:
            room = fetch(om, iter(order), lambda o, h: o.get_attr(h, "x"),
                         out, -1, None, ROW_S)
        finally:
            om.read_view = None
        answers.append((room, out))
        states.append(state(db))
        reader.commit()
    assert answers[0] == answers[1]
    assert states[0] == states[1]
    assert answers[0][1] == [0, 1, 2, 3, 4, 5, 6, 7, 0]


def test_a_handle_held_across_a_commit_parks_with_the_published_record():
    """A commit publishes to a live handle (``ObjectManager._publish``,
    stood in for by the row function); the park step swaps the record
    in, on a hit as on a miss."""
    def body(derby, fetch):
        rids = derby.patient_rids[:4]
        warm_up(derby, rids[:2])  # two hits, two misses

        def publish(om, handle):
            handle.published = b"committed %d" % handle.rid.slot
            return handle.record

        borrowed: list = []
        fetch(derby.db.manager, rids, publish, borrowed)
        handles = derby.db.handles._handles
        assert [handles[rid].record for rid in rids] == [
            b"committed %d" % rid.slot for rid in rids
        ]
        return borrowed

    assert b"committed" not in b"".join(compare(derbies(), body))
