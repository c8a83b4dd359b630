"""In-place metering is bit-identical to ``charge_us``.

The per-row charge sites -- the handle table, ``get_attr``, the result
append -- add seconds straight into ``SimClock.buckets`` instead of
calling ``charge_us``.  Float addition does not associate, so "the same
total" is not good enough: every pinned simulated output depends on the
same adds happening in the same order.  These tests drive a scripted
sequence through the real objects and replay it, charge by charge,
through ``charge_us`` on a second clock with the prices worked out here
the way the handle table used to work them out; the two clocks must be
``==``, not approximately equal.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exec.operators.base import PipelineContext
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.objects.handle import HandleMode
from repro.simtime import Bucket, CostParams, SimClock

#: Prices whose sums round differently in different orders.
UGLY = CostParams(
    handle_get_us=80.3,
    handle_unref_us=45.7,
    compact_handle_get_us=8.1,
    compact_handle_unref_us=3.9,
    bulk_handle_factor=0.17,
    attr_decode_us=0.83,
    result_append_txn_us=601.7,
    result_append_us=5.3,
)

ROUNDS = 2000


def reference_prices(params: CostParams, mode: HandleMode) -> dict:
    """Microseconds per handle operation under ``mode``, as
    ``HandleTable`` priced them when every charge was a ``charge_us``."""
    alloc = params.handle_get_us
    touch = params.handle_get_us * 0.1
    unref = params.handle_unref_us
    full_pair = params.handle_get_us + params.handle_unref_us
    compact_pair = params.compact_handle_get_us + params.compact_handle_unref_us
    if mode is HandleMode.FULL:
        fixed = variable = full_pair
    elif mode is HandleMode.COMPACT_LITERALS:
        fixed = variable = compact_pair
    elif mode is HandleMode.INLINE_TUPLES:
        fixed, variable = None, compact_pair
    else:
        alloc *= params.bulk_handle_factor
        touch *= params.bulk_handle_factor
        unref *= params.bulk_handle_factor
        fixed = variable = full_pair * params.bulk_handle_factor
    return {"alloc": alloc, "touch": touch, "unref": unref,
            "fixed": fixed, "variable": variable}


def make_db(params: CostParams, mode: HandleMode):
    schema = Schema()
    schema.define("Doc", [
        AttributeDef("n", AttrKind.INT32),
        AttributeDef("title", AttrKind.STRING),
        AttributeDef("parts", AttrKind.REF_SET),
    ])
    db = Database(schema, params, handle_mode=mode)
    db.create_file("docs")
    rid = db.create_object("Doc", {"n": 7, "title": "x"}, "docs")
    db.manager.unref(db.manager.load(rid))  # page cached: a miss reads free
    db.handles.clear()
    db.clock.reset()
    return db, rid


@pytest.mark.parametrize("params", [CostParams(), UGLY], ids=["default", "ugly"])
@pytest.mark.parametrize("mode", list(HandleMode), ids=lambda m: m.value)
def test_scripted_sequence_equals_its_charge_us_replay(params, mode):
    db, rid = make_db(params, mode)
    om, handles, ctx = db.manager, db.handles, PipelineContext(db)
    us = reference_prices(params, mode)
    replay = SimClock()

    def literal(kind: str) -> None:
        if us[kind] is not None:
            replay.charge_us(Bucket.HANDLE, us[kind])

    for round_no in range(ROUNDS):
        handle = om.borrow(rid)                # allocate, then parked hits
        replay.charge_us(Bucket.HANDLE, us["touch" if round_no else "alloc"])
        assert om.borrow(rid) is handle        # reference, live
        replay.charge_us(Bucket.HANDLE, us["touch"])
        for name, kind in (("n", None), ("title", "fixed"), ("parts", "variable")):
            om.get_attr(handle, name)
            replay.charge_us(Bucket.CPU, params.attr_decode_us)
            if kind is not None:
                literal(kind)
        handles.charge_literal(fixed_size=True)
        literal("fixed")
        handles.charge_literal(fixed_size=False)
        literal("variable")
        for transactional in (True, False):
            ctx.charge_result(transactional)
            replay.charge_us(
                Bucket.RESULT,
                params.result_append_txn_us if transactional
                else params.result_append_us,
            )
        om.unref(handle)
        replay.charge_us(Bucket.HANDLE, us["unref"])
        with handle:                           # the last reference: parks
            pass
        replay.charge_us(Bucket.HANDLE, us["unref"])
        # Every round: a last-bit difference in one price shows while
        # the totals are small, a reordering once they are large.
        assert db.clock.snapshot() == replay.snapshot(), round_no

    assert handle.refcount == 0 and handles.parked_count == 1
    assert list(db.clock.breakdown()) == list(replay.breakdown())
    assert db.clock.elapsed_s == replay.elapsed_s


@pytest.mark.parametrize("params", [CostParams(), UGLY], ids=["default", "ugly"])
@pytest.mark.parametrize("mode", list(HandleMode), ids=lambda m: m.value)
def test_a_read_or_a_result_row_alone_equals_its_charge_us(params, mode):
    """Each operation on a zeroed clock: a price worked out in another
    way (``us * 1e-6`` for ``us / 1e6``) is off in the last bit, which a
    long sum absorbs and a single add shows.  (The handle table's own
    prices are held alone in ``test_objects_runtime.TestHandleTable``.)"""
    db, rid = make_db(params, mode)
    om, ctx = db.manager, PipelineContext(db)
    us = reference_prices(params, mode)

    def costs(operation, *charges) -> bool:
        db.clock.reset()
        operation()
        alone = SimClock()
        for bucket, price in charges:
            if price is not None:
                alone.charge_us(bucket, price)
        return db.clock.snapshot() == alone.snapshot()

    decode = (Bucket.CPU, params.attr_decode_us)
    with om.borrow(rid) as handle:
        assert costs(lambda: om.get_attr(handle, "n"), decode)
        assert costs(lambda: om.get_attr(handle, "title"),
                     decode, (Bucket.HANDLE, us["fixed"]))
        assert costs(lambda: om.get_attr(handle, "parts"),
                     decode, (Bucket.HANDLE, us["variable"]))
    assert costs(ctx.charge_result, (Bucket.RESULT, params.result_append_txn_us))
    assert costs(lambda: ctx.charge_result(False),
                 (Bucket.RESULT, params.result_append_us))


def test_grouping_the_adds_is_not_bit_identical():
    """Why the adds stay interleaved: the same charges, summed grouped
    by price or multiplied out, differ from the interleaved sum in the
    last digits."""
    params = CostParams()
    touch, unref = params.handle_get_us * 0.1, params.handle_unref_us
    interleaved, grouped = SimClock(), SimClock()
    n = 91_642
    for __ in range(n):
        interleaved.charge_us(Bucket.HANDLE, touch)
        interleaved.charge_us(Bucket.HANDLE, unref)
    for us in (touch, unref):
        for __ in range(n):
            grouped.charge_us(Bucket.HANDLE, us)
    multiplied = n * (touch + unref) / 1e6
    assert len({interleaved.elapsed_s, grouped.elapsed_s, multiplied}) == 3


def test_a_map_bound_before_reset_still_charges_the_clock():
    db, rid = make_db(CostParams(), HandleMode.FULL)
    bound = db.clock.buckets
    with db.manager.borrow(rid):
        pass
    assert db.clock.elapsed_s > 0
    db.clock.reset()
    assert db.clock.buckets is bound and db.clock.elapsed_s == 0
    db.manager.unref(db.manager.borrow(rid))   # a parked hit, then unref
    us = reference_prices(CostParams(), HandleMode.FULL)
    assert db.clock.elapsed_s == us["touch"] / 1e6 + us["unref"] / 1e6
    assert db.clock.breakdown() == {"handle": db.clock.elapsed_s}


@pytest.mark.parametrize("name", [
    "handle_get_us", "handle_unref_us", "compact_handle_get_us",
    "bulk_handle_factor", "attr_decode_us", "predicate_us", "compare_us",
    "result_append_us", "result_append_txn_us",
])
def test_a_negative_price_is_rejected(name):
    """An in-place add does not pass ``charge_us``'s sign check, so the
    prices are checked where they are made."""
    with pytest.raises(ValueError, match=f"negative charge: {name}"):
        CostParams(**{name: -1})
    with pytest.raises(ValueError, match=f"negative charge: {name}"):
        replace(CostParams(), **{name: -1e-9})
    assert getattr(replace(CostParams(), **{name: 0.0}), name) == 0.0
