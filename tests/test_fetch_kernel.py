"""``ObjectManager.fetch`` against the bracket it replaces.

The kernel runs Figure 8's get-handle / row function / unreference over
a batch of rids, with a handle hit and a miss on a resident page
bracketed by hand.  Its contract is that nothing simulated can tell: the
same rid sequence run through the kernel and through ``with
om.borrow(rid)`` brackets, on two databases built alike, leaves the same
handle-map order and refcounts, the same parked count, the same order
of both cache tiers, the same meters and every bucket bit for bit --
warm, cold and mixed; on misses whose pages are resident, and on misses
that all fault; on forwarded records and a missing slot; with the delayed-free list
overflowing and with no list at all; with nested brackets; with a row
function that raises, on a hit and on an inline miss; under a
snapshot view, where the kernel takes the live hits and misses itself,
the reader's own write among them, and leaves to ``borrow`` the version
reads and an object the snapshot cannot see, which it passes over; and
across a hand-off between two sessions of a query service, each with a
client tier of its own.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.errors import RecordNotFoundError, RecordNotVisibleError
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.service import QueryService
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
        list(db.system.client_cache._pages),
        list(db.system.server_cache._pages),
        table._parked_count,
        sorted((key, h.refcount) for key, h in table._versioned.items()),
        meter_values(db.counters),
        {bucket: db.clock.buckets.get(bucket, 0.0).hex() for bucket in Bucket},
    )


def derbies(**changes):
    """Two databases built alike."""
    config = replace(DerbyConfig.db_1to3(scale=0.0001), **changes)
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


def age_or_upin(om, handle):
    """A patient's age or a provider's upin: one read per class."""
    name = "age" if handle.class_def.name == "Patient" else "upin"
    return om.get_attr(handle, name)


def age_over(limit):
    def row_fn(om, handle):
        age = om.get_attr(handle, "age")
        return age if age > limit else SKIP
    return row_fn


def warm_up(derby, rids, capacity=None) -> None:
    if capacity is not None:
        derby.db.handles.delayed_free_capacity = capacity
    bracketed(derby.db.manager, rids, lambda om, handle: None, [])


#: A client tier that holds every page of the tiny database (its own
#: memory model gives it one).
CLIENT_PAGES = 16


def resident(derby, rids) -> None:
    """The pages of ``rids`` in a client tier that holds them all, read
    last to first so that a forward pass reorders the LRU, and no handle
    for any."""
    derby.db.system.client_cache.capacity_pages = CLIENT_PAGES
    warm_up(derby, rids[::-1])
    derby.db.handles.clear()


def counting_borrows(om) -> list:
    """Count the kernel's ``borrow`` fallbacks on ``om``."""
    borrowed: list = []
    borrow = om.borrow

    def counted(rid):
        borrowed.append(rid)
        return borrow(rid)

    om.borrow = counted
    return borrowed


def one_per_page(rids) -> list:
    pages: dict = {}
    for rid in rids:
        pages.setdefault(rid[:2], rid)
    return list(pages.values())


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


@pytest.mark.parametrize("capacity", [None, 0])
def test_misses_on_resident_pages_run_in_the_kernel(capacity):
    """Every rid misses the handle table and finds its page in the client
    tier: the kernel takes each miss itself, moving the page to the
    young end of the LRU as ``get_page`` does, and borrows nothing."""
    def body(derby, fetch):
        rids = derby.patient_rids[:120] + derby.provider_rids[:40]
        resident(derby, rids)
        if capacity is not None:
            derby.db.handles.delayed_free_capacity = capacity
        counters = derby.db.counters
        faults, allocated = counters.client_faults, counters.handles_allocated
        borrowed = counting_borrows(derby.db.manager)
        out: list = []
        room = fetch(derby.db.manager, rids, age_or_upin, out, -1, SKIP,
                     ROW_S)
        assert counters.client_faults == faults
        assert counters.handles_allocated == allocated + len(rids)
        assert borrowed == ([] if fetch is kernel else rids)
        return room, out

    room, out = compare(derbies(), body)
    assert len(out) == 160


def test_misses_after_a_cold_restart_fault_through_borrow():
    """One rid per page after ``restart_cold``: every miss faults, and
    the kernel hands each to ``borrow``, which may yield the baton."""
    def body(derby, fetch):
        rids = one_per_page(derby.patient_rids + derby.provider_rids)
        derby.db.restart_cold()
        borrowed = counting_borrows(derby.db.manager)
        out: list = []
        room = fetch(derby.db.manager, rids, age_or_upin, out, -1, SKIP,
                     ROW_S)
        assert borrowed == rids
        return room, out

    room, out = compare(derbies(), body)
    assert len(out) > 2


@pytest.mark.parametrize("target", ["resident", "faulting"])
def test_a_forwarded_record_is_read_one_hop_on(target):
    """An ``index_first=False`` load grows every header after its record
    is written, and some records move, leaving a forwarding stub: the
    kernel hands each such miss to ``borrow``, which follows the one hop
    ``read_resolving`` allows to a target page that is resident or that
    faults."""
    def body(derby, fetch):
        db = derby.db
        moved = [
            rid for rid in derby.patient_rids + derby.provider_rids
            if db.disk.peek_page(*rid[:2]).resolve(rid[2]).__class__
            is not bytes
        ]
        resident(derby, moved)
        if target == "faulting":
            db.restart_cold()
            for page in {rid[:2] for rid in moved}:  # the stubs' pages
                db.system.get_page(*page)
        faults = db.counters.client_faults
        borrowed = counting_borrows(db.manager)
        out: list = []
        room = fetch(db.manager, moved, age_or_upin, out, -1, SKIP, ROW_S)
        assert (db.counters.client_faults > faults) == (target == "faulting")
        assert borrowed == moved
        return room, out

    room, out = compare(derbies(index_first=False), body)
    assert len(out) > 10


def test_a_missing_slot_on_a_resident_page_raises_as_borrow_does():
    """A rid past its page's last slot: the page is resident, but the
    kernel leaves the miss to ``borrow``, which makes the client hit
    and then raises."""
    def body(derby, fetch):
        rids = derby.patient_rids[:3]
        resident(derby, rids)
        missing = type(rids[0])(rids[0][0], rids[0][1], 10_000)
        out: list = []
        with pytest.raises(RecordNotFoundError):
            fetch(derby.db.manager, rids + [missing], age_or_upin, out)
        return out

    assert len(compare(derbies(), body)) == 3


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


def raise_on_third(prepare) -> None:
    """A row function that raises on the third of ten rids, after
    ``prepare`` warmed them: the kernel unreferences the handle."""
    def body(derby, fetch):
        prepare(derby, derby.patient_rids[:10])
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


def test_a_raising_row_function_releases_its_handle():
    raise_on_third(warm_up)


def test_a_raising_row_function_releases_its_inline_miss():
    raise_on_third(resident)


def snapshot_world():
    """Twelve records on one page, and a snapshot reader that updated
    record 1 itself; behind it a writer that updated record 2, created a
    thirteenth and committed, and a writer still active on record 3.
    Records 4-6 have parked handles and the rest none, on a page in a
    client tier that holds every page."""
    schema = Schema()
    schema.define("Thing", [AttributeDef("x", AttrKind.INT32)])
    db = Database(schema)
    db.create_file("things")
    rids = [db.create_object("Thing", {"x": i}, "things") for i in range(12)]
    db.shutdown()
    txm = TransactionManager(db, recovery=True)
    reader = txm.begin(isolation="si")
    reader.update_scalar(rids[1], "x", 101)
    writer = txm.begin()
    writer.update_scalar(rids[2], "x", 102)
    rids.append(writer.create_object("Thing", {"x": 12}, "things"))
    writer.commit()
    active = txm.begin()
    active.update_scalar(rids[3], "x", 103)
    db.system.client_cache.capacity_pages = CLIENT_PAGES
    bracketed(db.manager, rids, lambda om, handle: None, [])
    db.handles.clear()
    bracketed(db.manager, rids[4:7], lambda om, handle: None, [])
    return db, reader, active, rids


def test_the_kernel_reads_a_snapshot_as_the_brackets_do():
    """Live hits (4-6, then 4 and 7 again) and live misses on a resident
    page (0, 7-11), the reader's own write (1, a miss), a version
    stashed by an active writer (3) and one committed after the snapshot
    (2), and an object created after it (12, passed over): the kernel
    takes every live rid itself and hands the other three to
    ``borrow``."""
    answers, states = [], []
    for fetch in (kernel, bracketed):
        db, reader, active, rids = snapshot_world()
        om = db.manager
        counters = db.counters
        faults, allocated = counters.client_faults, counters.handles_allocated
        borrowed = counting_borrows(om)
        order = [rids[12], *rids[:12], rids[4], rids[7]]
        out: list = []
        om.read_view = reader.view
        try:
            room = fetch(om, iter(order), lambda o, h: o.get_attr(h, "x"),
                         out, -1, None, ROW_S)
        finally:
            om.read_view = None
        assert counters.client_faults == faults
        # Seven live misses, and a version handle for each of 2 and 3.
        assert counters.handles_allocated == allocated + 7 + 2
        assert reader.view.version_reads == 2
        if fetch is kernel:
            assert borrowed == [rids[12], rids[2], rids[3]]
        answers.append((room, out))
        states.append(state(db))
        active.abort()
        reader.commit()
    assert answers[0] == answers[1]
    assert states[0] == states[1]
    assert answers[0][1] == [0, 101, 2, 3, *range(4, 12), 4, 7]


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


def test_the_client_tier_bound_per_call_holds_across_a_hand_off():
    """Two sessions of one 2PL query service, each with a client tier of
    its own, the database's base tier behind them holding every page (a
    kernel that read the base tier would take a's first miss as a hit,
    and never hand over).  Session a's fetch begins on a rid whose page its tier lacks: the miss
    goes to ``borrow`` and faults, and the fault hands the baton to b,
    which reads the providers' pages into b's tier and faults in turn.
    a resumes with its own tier attached and takes every other rid as a
    miss on a page that tier holds.  Tiers, handle tables, meters and
    buckets end as the brackets leave them."""
    answers, states = [], []
    for derby, fetch in zip(derbies(), (kernel, bracketed)):
        db = derby.db
        om = db.manager
        patients = derby.patient_rids
        first = patients[0]
        a_rids = [rid for rid in patients if rid[:2] != first[:2]][:40]
        b_rids = one_per_page(derby.provider_rids)
        resident(derby, patients + derby.provider_rids)  # the base tier
        service = QueryService(derby)
        a, b = service.open_session("a"), service.open_session("b")
        for session in (a, b):
            session.cache.capacity_pages = CLIENT_PAGES
        with service.immediate(a):
            warm_up(derby, a_rids)
            a.handles.clear()
        events: list = []
        borrow = om.borrow

        def counted(rid):
            events.append(("borrow", rid))
            return borrow(rid)

        om.borrow = counted

        def reading(name):
            def row_fn(o, handle):
                events.append((name, handle.rid))
                return age_or_upin(o, handle)
            return row_fn

        outs: dict = {"a": [], "b": []}
        service.spawn(a, lambda: fetch(om, [first, *a_rids], reading("a"),
                                       outs["a"], -1, SKIP, ROW_S))
        service.spawn(b, lambda: fetch(om, b_rids, reading("b"), outs["b"],
                                       -1, SKIP, ROW_S))
        tasks = service.run()
        assert [task.error for task in tasks] == [None, None]
        # b began between a's faulting miss and a's first row
        assert events[:3] == [
            ("borrow", first), ("borrow", b_rids[0]), ("a", first)
        ]
        if fetch is kernel:
            assert all(("borrow", rid) not in events for rid in a_rids)
        answers.append(outs)
        states.append((
            state(db),
            [list(s.cache._pages) for s in (a, b)],
            [[(rid, h.refcount) for rid, h in s.handles._handles.items()]
             for s in (a, b)],
        ))
    assert answers[0] == answers[1]
    assert states[0] == states[1]
    assert len(answers[0]["a"]) == 41 and answers[0]["b"]
