"""Tests for the miniature OO7 benchmark."""

from __future__ import annotations

import pytest

from repro.objects.handle import HandleMode
from repro.oo7 import (
    OO7Config,
    build_oo7,
    query_q1,
    traversal_t1,
    traversal_t6,
)
from repro.oo7.builder import OO7Database
from repro.oo7.operations import TraversalResult


def traversal_t2(oo7: OO7Database, variant: str = "a") -> TraversalResult:
    """OO7 T2: like T1 but *updating* parts along the way.

    Variant ``"a"`` swaps x and y on the root atomic part of each
    composite part; variant ``"b"`` updates every atomic part.  Updates
    are scalar (same-size), so records never move — the cost is dirtied
    pages flowing back through the caches at the next flush.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"unknown T2 variant {variant!r}")
    db = oo7.db
    om = db.manager
    updated = 0

    def update_part(rid) -> None:
        nonlocal updated
        with om.borrow(rid) as handle:
            x = om.get_attr(handle, "x")
            y = om.get_attr(handle, "y")
        om.update_scalar(rid, "x", y)
        om.update_scalar(rid, "y", x)
        updated += 1

    start_reads = db.counters.disk_reads
    for part_rid in oo7.composite_parts.iter_rids():
        with om.borrow(part_rid) as part:
            target = om.get_attr(
                part, "root_part" if variant == "a" else "parts"
            )
        if variant == "a":
            update_part(target)
        else:
            for rid in db.iter_set_rids(target):
                update_part(rid)
    return TraversalResult(
        visited_atomic=updated,
        visited_assemblies=0,
        elapsed_s=db.clock.elapsed_s,
        page_reads=db.counters.disk_reads - start_reads,
    )


@pytest.fixture(scope="module")
def oo7():
    return build_oo7(OO7Config())


class TestBuilder:
    def test_structural_counts(self, oo7):
        cfg = oo7.config
        assert cfg.n_base_assemblies == 27
        assert cfg.n_composite_parts == 81
        assert cfg.n_atomic_parts == 1620
        assert len(oo7.atomic_parts) == cfg.n_atomic_parts
        assert len(oo7.composite_parts) == cfg.n_composite_parts
        assert oo7.by_atomic_id.entry_count == cfg.n_atomic_parts

    def test_every_atomic_part_reachable_by_id(self, oo7):
        om = oo7.db.manager
        for part_id in (1, 500, 1620):
            (rid,) = oo7.by_atomic_id.lookup(part_id)
            assert om.get_attr_at(rid, "id") == part_id

    def test_connections_form_regular_graph(self, oo7):
        om, db = oo7.db.manager, oo7.db
        (rid,) = oo7.by_atomic_id.lookup(7)
        handle = om.load(rid)
        conn = om.get_attr(handle, "conn_out")
        om.unref(handle)
        targets = list(db.iter_set_rids(conn))
        assert len(targets) == oo7.config.connections_per_atomic
        assert rid not in targets


class TestTraversals:
    def test_t1_visits_everything(self, oo7):
        oo7.start_cold_run()
        result = traversal_t1(oo7)
        cfg = oo7.config
        assert result.visited_atomic == cfg.n_atomic_parts
        expected_assemblies = sum(
            cfg.assembly_fanout**level for level in range(cfg.assembly_levels)
        )
        assert result.visited_assemblies == expected_assemblies
        assert result.elapsed_s > 0
        assert result.page_reads > 0

    def test_t6_visits_only_roots(self, oo7):
        oo7.start_cold_run()
        result = traversal_t6(oo7)
        assert result.visited_atomic == oo7.config.n_composite_parts

    def test_warm_t1_does_no_io(self, oo7):
        oo7.start_cold_run()
        traversal_t1(oo7)
        warm = traversal_t1(oo7)
        assert warm.page_reads == 0

    def test_composition_layout_makes_t1_sequentialish(self, oo7):
        """Each composite part's atomic graph lives on 2-3 contiguous
        pages, so T1's page reads are close to the file size, not to the
        number of pointer hops."""
        oo7.start_cold_run()
        result = traversal_t1(oo7)
        file_pages = oo7.db.file("design").num_pages
        hops = result.visited_atomic * oo7.config.connections_per_atomic
        assert result.page_reads < file_pages * 2
        assert result.page_reads < hops / 10


class TestQ1:
    def test_all_lookups_found(self, oo7):
        oo7.start_cold_run()
        assert query_q1(oo7, lookups=25) == 25


class TestT2Updates:
    def test_t2a_swaps_roots(self):
        oo7 = build_oo7(OO7Config())
        om = oo7.db.manager
        part_rid = next(iter(oo7.composite_parts.iter_rids()))
        handle = om.load(part_rid)
        root = om.get_attr(handle, "root_part")
        om.unref(handle)
        x0 = om.get_attr_at(root, "x")
        y0 = om.get_attr_at(root, "y")
        oo7.start_cold_run()
        result = traversal_t2(oo7, "a")
        assert result.visited_atomic == oo7.config.n_composite_parts
        assert om.get_attr_at(root, "x") == y0
        assert om.get_attr_at(root, "y") == x0

    def test_t2b_updates_everything(self):
        oo7 = build_oo7(OO7Config())
        oo7.start_cold_run()
        result = traversal_t2(oo7, "b")
        assert result.visited_atomic == oo7.config.n_atomic_parts

    def test_t2_dirties_pages_for_the_next_flush(self):
        oo7 = build_oo7(OO7Config())
        oo7.start_cold_run()
        traversal_t2(oo7, "a")
        writes_before = oo7.db.counters.disk_writes
        oo7.db.shutdown()
        assert oo7.db.counters.disk_writes > writes_before

    def test_t2_twice_restores_original(self):
        oo7 = build_oo7(OO7Config())
        om = oo7.db.manager
        (rid,) = oo7.by_atomic_id.lookup(1)
        x0 = om.get_attr_at(rid, "x")
        traversal_t2(oo7, "b")
        traversal_t2(oo7, "b")
        assert om.get_attr_at(rid, "x") == x0

    def test_unknown_variant_rejected(self, oo7):
        with pytest.raises(ValueError):
            traversal_t2(oo7, "z")


class TestHandleModesOnOO7:
    def test_cures_do_not_hurt_warm_navigation(self):
        """The paper's closing claim: the Section 4.4 handle cures speed
        up cold associative access 'without hurting main memory
        navigation'.  Warm T1 under every cure must cost no more than
        under full handles."""
        def warm_t1_seconds(mode: HandleMode) -> float:
            oo7 = build_oo7(OO7Config(), handle_mode=mode)
            oo7.start_cold_run()
            traversal_t1(oo7)           # warm the caches and handles
            before = oo7.db.clock.elapsed_s
            traversal_t1(oo7)
            return oo7.db.clock.elapsed_s - before

        full = warm_t1_seconds(HandleMode.FULL)
        for mode in (
            HandleMode.COMPACT_LITERALS,
            HandleMode.INLINE_TUPLES,
            HandleMode.BULK,
        ):
            assert warm_t1_seconds(mode) <= full * 1.01, mode
