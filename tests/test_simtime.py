"""Unit tests for the simulation clock's float semantics.

``elapsed_s`` is a float sum over buckets, and float addition does not
associate: the same charges summed in another order differ in the last
digit.  Every pinned simulated output depends on the order being the
order in which buckets were *first charged*, so that is what these tests
hold still.
"""

from __future__ import annotations

import itertools

import pytest

from repro.simtime import Bucket, SimClock

#: Seconds whose left-to-right sum depends on the order.
A, B, C = 0.1, 0.2, 0.3


def charged(order: list[tuple[Bucket, float]]) -> SimClock:
    clock = SimClock()
    for bucket, seconds in order:
        clock.charge_s(bucket, seconds)
    return clock


class TestElapsedOrder:
    def test_the_three_charges_are_order_dependent(self):
        sums = {sum(p) for p in itertools.permutations([A, B, C])}
        assert len(sums) > 1

    @pytest.mark.parametrize(
        "order", list(itertools.permutations([A, B, C]))
    )
    def test_elapsed_is_the_first_charge_order_sum(self, order):
        # Buckets picked so that declaration order (IO < HANDLE < CPU),
        # name order (cpu < handle < io) and charge order all differ.
        buckets = [Bucket.HANDLE, Bucket.IO, Bucket.CPU]
        clock = charged(list(zip(buckets, order)))
        assert clock.elapsed_s == sum(order)

    def test_later_charges_do_not_move_a_bucket(self):
        clock = charged([
            (Bucket.SORT, A), (Bucket.IO, B), (Bucket.SORT, C), (Bucket.CPU, C),
        ])
        assert list(clock.breakdown()) == ["sort", "io", "cpu"]
        assert clock.elapsed_s == sum([A + C, B, C])

    def test_units_share_one_order(self):
        clock = SimClock()
        clock.charge_us(Bucket.LOCK, 300_000.0)
        clock.charge_ms(Bucket.IO, 200.0)
        clock.charge_s(Bucket.CPU, A)
        assert list(clock.breakdown()) == ["lock", "io", "cpu"]
        assert clock.elapsed_s == sum([300_000.0 / 1e6, 200.0 / 1e3, A])

    def test_zero_charge_still_takes_its_place(self):
        clock = charged([(Bucket.RPC, 0.0), (Bucket.IO, A)])
        assert clock.breakdown() == {"rpc": 0.0, "io": A}


class TestViews:
    def test_breakdown_is_first_charge_order(self):
        clock = charged([(Bucket.SWAP, A), (Bucket.BACKOFF, B), (Bucket.IO, C)])
        assert list(clock.breakdown().items()) == [
            ("swap", A), ("backoff", B), ("io", C),
        ]

    def test_bucket_s_of_an_uncharged_bucket_is_zero(self):
        clock = charged([(Bucket.IO, A)])
        assert clock.buckets.get(Bucket.IO, 0.0) == A
        assert clock.buckets.get(Bucket.LOG, 0.0) == 0.0

    def test_snapshot_is_a_copy(self):
        clock = charged([(Bucket.IO, A)])
        snap = clock.snapshot()
        clock.charge_s(Bucket.IO, B)
        assert snap == {Bucket.IO: A}

    def test_since_is_name_sorted_over_both_sides(self):
        clock = charged([(Bucket.SORT, A), (Bucket.IO, B)])
        earlier = clock.snapshot()
        clock.charge_s(Bucket.CPU, C)
        clock.charge_s(Bucket.IO, A)
        delta = clock.since(earlier)
        assert list(delta) == [Bucket.CPU, Bucket.IO, Bucket.SORT]
        assert delta == {Bucket.CPU: C, Bucket.IO: (B + A) - B, Bucket.SORT: 0.0}

    def test_since_keeps_buckets_only_the_snapshot_has(self):
        clock = charged([(Bucket.SORT, A)])
        earlier = clock.snapshot()
        clock.reset()
        clock.charge_s(Bucket.IO, B)
        assert clock.since(earlier) == {Bucket.IO: B, Bucket.SORT: -A}


class TestReset:
    def test_reset_forgets_totals_and_order(self):
        clock = charged([(Bucket.IO, A), (Bucket.CPU, B), (Bucket.SORT, C)])
        clock.reset()
        assert clock.elapsed_s == 0
        assert clock.breakdown() == {}
        for bucket, seconds in [(Bucket.SORT, C), (Bucket.CPU, B), (Bucket.IO, A)]:
            clock.charge_s(bucket, seconds)
        assert list(clock.breakdown()) == ["sort", "cpu", "io"]
        assert clock.elapsed_s == sum([C, B, A])

    def test_clocks_do_not_share_buckets(self):
        one, two = SimClock(), SimClock()
        one.charge_s(Bucket.IO, A)
        assert two.elapsed_s == 0


class TestNegativeCharges:
    @pytest.mark.parametrize("charge", ["charge_ms", "charge_us", "charge_s"])
    def test_negative_charge_raises_and_charges_nothing(self, charge):
        clock = SimClock()
        with pytest.raises(ValueError, match="negative charge"):
            getattr(clock, charge)(Bucket.IO, -1e-9)
        assert clock.breakdown() == {}


class TestBucketKeys:
    def test_buckets_key_dicts_and_compare_by_identity(self):
        assert {Bucket.IO: 1}[Bucket("io")] == 1
        assert Bucket.IO is Bucket("io")
        assert len({b: None for b in Bucket}) == len(Bucket) == 13
