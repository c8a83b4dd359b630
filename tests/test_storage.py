"""Unit tests for the storage substrate (rids, pages, disk, files)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    PageFullError,
    RecordNotFoundError,
    RecordTooLargeError,
    StorageError,
)
from repro.storage import DiskManager, Page, Rid, StorageFile
from repro.storage.page import PAGE_HEADER_SIZE, SLOT_OVERHEAD, _Forward
from repro.storage.rid import NIL_RID
from repro.units import PAGE_SIZE, pages_for_bytes

from .direct_pager import DirectPager


# ---------------------------------------------------------------- Rid

class TestRid:
    def test_orders_by_physical_position(self):
        rids = [Rid(0, 5, 1), Rid(0, 2, 9), Rid(0, 2, 3), Rid(1, 0, 0)]
        assert sorted(rids) == [
            Rid(0, 2, 3),
            Rid(0, 2, 9),
            Rid(0, 5, 1),
            Rid(1, 0, 0),
        ]

    def test_nil_rid(self):
        assert NIL_RID == Rid(-1, -1, -1)
        assert Rid(0, 0, 0) != NIL_RID

    def test_repr_is_compact(self):
        assert repr(Rid(2, 7, 3)) == "@2:7.3"

    def test_hashable(self):
        assert len({Rid(0, 0, 0), Rid(0, 0, 0), Rid(0, 0, 1)}) == 2


# ---------------------------------------------------------------- units

class TestUnits:
    def test_pages_for_bytes_rounds_up(self):
        assert pages_for_bytes(0) == 0
        assert pages_for_bytes(1) == 1
        assert pages_for_bytes(PAGE_SIZE) == 1
        assert pages_for_bytes(PAGE_SIZE + 1) == 2

    def test_pages_for_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            pages_for_bytes(-1)


# ---------------------------------------------------------------- Page

class TestPage:
    def test_insert_read_roundtrip(self):
        page = Page(0, 0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.record_count == 1

    def test_slots_are_stable_across_deletes(self):
        page = Page(0, 0)
        s0 = page.insert(b"a")
        s1 = page.insert(b"b")
        page.delete(s0)
        assert page.read(s1) == b"b"
        with pytest.raises(RecordNotFoundError):
            page.read(s0)

    def test_free_space_accounting(self):
        page = Page(0, 0)
        before = page.free_bytes
        page.insert(b"x" * 100)
        assert page.free_bytes == before - 100 - SLOT_OVERHEAD
        assert page.used_bytes == 100 + SLOT_OVERHEAD

    def test_delete_reclaims_space(self):
        page = Page(0, 0)
        slot = page.insert(b"x" * 100)
        page.delete(slot)
        assert page.used_bytes == 0

    def test_page_full(self):
        page = Page(0, 0, page_size=128)
        page.insert(b"x" * 80)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 80)

    def test_record_too_large(self):
        page = Page(0, 0)
        with pytest.raises(RecordTooLargeError):
            page.insert(b"x" * PAGE_SIZE)

    def test_slack_reserved(self):
        page = Page(0, 0, page_size=128)
        # capacity = 96; record of 60 fits raw but not with 40 slack
        with pytest.raises(PageFullError):
            page.insert(b"x" * 60, slack=40)
        assert page.read(page.insert(b"x" * 60)) == b"x" * 60

    def test_update_in_place(self):
        page = Page(0, 0)
        slot = page.insert(b"aaaa")
        assert page.replace(slot, page.read(slot), b"bbbbbbbb")
        assert page.read(slot) == b"bbbbbbbb"

    def test_update_refuses_when_page_cannot_grow(self):
        page = Page(0, 0, page_size=128)
        slot = page.insert(b"x" * 90)
        assert page.replace(slot, page.read(slot), b"y" * 200) is False
        assert page.read(slot) == b"x" * 90

    def test_forwarding(self):
        page = Page(0, 0)
        slot = page.insert(b"moved away")
        target = Rid(0, 9, 2)
        page.forward(slot, target)
        assert page.forward_target(slot) == target
        with pytest.raises(RecordNotFoundError):
            page.read(slot)
        assert slot not in page.slots()

    def test_capacity_matches_header(self):
        page = Page(0, 0)
        assert page.capacity == PAGE_SIZE - PAGE_HEADER_SIZE

    @given(
        st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=30)
    )
    @settings(max_examples=50)
    def test_property_roundtrip_many_records(self, records):
        page = Page(0, 0)
        stored: dict[int, bytes] = {}
        for rec in records:
            if len(rec) + SLOT_OVERHEAD > page.free_bytes:
                break
            stored[page.insert(rec)] = rec
        for slot, rec in stored.items():
            assert page.read(slot) == rec
        assert page.record_count == len(stored)

    @given(st.data())
    @settings(max_examples=50)
    def test_property_used_plus_free_is_capacity(self, data):
        page = Page(0, 0)
        n = data.draw(st.integers(min_value=0, max_value=20))
        for __ in range(n):
            rec = data.draw(st.binary(min_size=1, max_size=150))
            if len(rec) + SLOT_OVERHEAD <= page.free_bytes:
                page.insert(rec)
        assert page.used_bytes + page.free_bytes == page.capacity


def _reference_resolve(page: Page, slot: int):
    """What the slot probe answered before ``Page.resolve``: the bounds
    check by ``len``, then ``forward_target`` and ``read`` telling a
    forwarding entry from a record by ``isinstance``.  Kept as the
    reference ``resolve`` is compared against."""
    where = f"{page.file_id}:{page.page_no}"
    if not 0 <= slot < len(page._slots):
        raise RecordNotFoundError(f"no slot {slot} on page {where}")
    entry = page._slots[slot]
    if entry is None:
        raise RecordNotFoundError(f"slot {slot} of page {where} was deleted")
    return entry.target if isinstance(entry, _Forward) else entry


def _outcome(call, *args):
    try:
        return call(*args)
    except RecordNotFoundError as exc:
        return f"RecordNotFoundError: {exc}"


class TestPageResolve:
    """One probe of the slot directory, the checks written once."""

    LIVE, DELETED, FORWARDED, LAST = range(4)
    TARGET = Rid(0, 9, 2)

    def page(self) -> Page:
        page = Page(3, 7)
        for record in (b"live", b"doomed", b"moved away", b"last"):
            page.insert(record)
        page.delete(self.DELETED)
        page.forward(self.FORWARDED, self.TARGET)
        return page

    def test_equals_the_reference_on_every_slot_state(self):
        page = self.page()
        # -1 and -len are the slots a bare list index would wrap onto
        # the last and the first record; 4 is one past the end.
        for slot in (0, 1, 2, 3, 4, 5, -1, -2, -4, -5):
            assert _outcome(page.resolve, slot) == _outcome(
                _reference_resolve, page, slot
            ), slot
        assert page.resolve(self.LIVE) == b"live"
        assert page.resolve(self.FORWARDED) == self.TARGET
        assert page.resolve(self.LAST) == b"last"

    @pytest.mark.parametrize("slot", [-1, -4, 4], ids=["nil", "-len", "past"])
    def test_a_slot_the_page_never_had_is_not_found(self, slot):
        page = self.page()
        with pytest.raises(RecordNotFoundError, match=f"no slot {slot} on"):
            page.resolve(slot)

    def test_an_empty_page_has_no_slot(self):
        for slot in (0, -1):
            with pytest.raises(RecordNotFoundError, match="no slot"):
                Page(0, 0).resolve(slot)

    @pytest.mark.parametrize("operation", [
        lambda page, slot: page.read(slot),
        lambda page, slot: page.delete(slot),
        lambda page, slot: page.forward(slot, Rid(0, 1, 1)),
        lambda page, slot: page.forward_target(slot),
        lambda page, slot: page.repoint(slot, Rid(0, 1, 1)),
    ], ids=["read", "delete", "forward", "forward_target", "repoint"])
    def test_every_operation_reaches_the_checks(self, operation):
        page = self.page()
        before = page.capture()
        for slot, message in (
            (-1, "no slot -1 on"), (-4, "no slot -4 on"), (4, "no slot 4 on"),
            (self.DELETED, "slot 1 of page 3:7 was deleted"),
        ):
            with pytest.raises(RecordNotFoundError, match=message):
                operation(page, slot)
        assert page.capture() == before  # refused, nothing written

    def test_operations_tell_a_record_from_a_forwarding_entry(self):
        page = self.page()
        assert page.forward_target(self.LIVE) is None
        assert page.forward_target(self.FORWARDED) == self.TARGET
        with pytest.raises(RecordNotFoundError, match="forwarded to @0:9.2"):
            page.read(self.FORWARDED)
        with pytest.raises(RecordNotFoundError, match="already forwarded"):
            page.forward(self.FORWARDED, Rid(0, 1, 1))
        with pytest.raises(RecordNotFoundError, match="is not forwarded"):
            page.repoint(self.LIVE, Rid(0, 1, 1))
        page.repoint(self.FORWARDED, Rid(0, 1, 1))
        assert page.resolve(self.FORWARDED) == Rid(0, 1, 1)
        used = page.used_bytes
        page.delete(self.FORWARDED)  # a forwarding entry is one rid wide
        assert page.used_bytes == used - Rid.DISK_SIZE - SLOT_OVERHEAD


# ---------------------------------------------------------------- Disk

class TestDiskManager:
    def test_create_files(self):
        disk = DiskManager()
        f0, f1 = disk.create_file(), disk.create_file()
        assert f0 != f1
        assert sorted(disk._files) == [f0, f1]
        assert disk.num_pages(f0) == 0

    def test_read_charges_io_and_counts(self):
        disk = DiskManager()
        fid = disk.create_file()
        disk.allocate_page(fid)
        disk.read_page(fid, 0)
        disk.read_page(fid, 0)
        assert disk.counters.disk_reads == 2
        assert disk.clock.elapsed_s == pytest.approx(
            2 * disk.params.page_read_ms / 1000.0
        )

    def test_write_counts(self):
        disk = DiskManager()
        fid = disk.create_file()
        page = disk.allocate_page(fid)
        page.dirty = True
        disk.write_page(fid, 0)
        assert disk.counters.disk_writes == 1
        assert not page.dirty

    def test_peek_is_free(self):
        disk = DiskManager()
        fid = disk.create_file()
        disk.allocate_page(fid)
        disk.peek_page(fid, 0)
        assert disk.counters.disk_reads == 0
        assert disk.clock.elapsed_s == 0.0

    def test_unknown_file_raises(self):
        disk = DiskManager()
        with pytest.raises(StorageError):
            disk.read_page(99, 0)

    def test_unknown_page_raises(self):
        disk = DiskManager()
        fid = disk.create_file()
        with pytest.raises(StorageError):
            disk.read_page(fid, 5)

    def test_total_pages(self):
        disk = DiskManager()
        f0, f1 = disk.create_file(), disk.create_file()
        disk.allocate_page(f0)
        disk.allocate_page(f1)
        disk.allocate_page(f1)
        assert disk.total_pages() == 3


# ---------------------------------------------------------------- File

def make_file(fill_factor: float = 0.85) -> StorageFile:
    disk = DiskManager()
    return StorageFile(disk, DirectPager(disk), fill_factor=fill_factor)


class TestStorageFile:
    def test_insert_and_read(self):
        sfile = make_file()
        rid = sfile.insert(b"record one")
        assert sfile.read(rid) == b"record one"
        assert sfile.record_count == 1

    def test_insertion_preserves_creation_order(self):
        sfile = make_file()
        rids = [sfile.insert(f"r{i}".encode()) for i in range(500)]
        assert rids == sorted(rids), "physical order must follow creation"

    def test_pages_fill_then_grow(self):
        sfile = make_file()
        record = b"x" * 100
        # capacity*fill ~ 3454 bytes -> 33 records of 104 bytes per page
        for __ in range(100):
            sfile.insert(record)
        assert sfile.num_pages == pytest.approx(100 // 33 + 1, abs=1)

    def test_fill_factor_leaves_slack(self):
        full = make_file(fill_factor=1.0)
        slacked = make_file(fill_factor=0.5)
        record = b"x" * 100
        for __ in range(100):
            full.insert(record)
            slacked.insert(record)
        assert slacked.num_pages > full.num_pages

    def test_slack_is_not_reserved_on_an_empty_page(self):
        """A record that fits a page but not page-minus-slack has to go
        somewhere: an empty page takes it, and no page is leaked."""
        sfile = make_file()  # 15 % slack: 609 of 4064 bytes
        sfile.insert(b"first")
        band = b"x" * 3500  # > 4064 - 609 - 4, < 4064 - 4
        rid = sfile.insert(band)
        assert (rid.page_no, sfile.num_pages) == (1, 2)
        assert sfile.read(rid) == band
        # Slack still applies beside a record: the next one starts page 2.
        assert sfile.insert(b"y" * 10).page_no == 2

    def test_first_record_of_a_file_may_fill_the_page(self):
        sfile = make_file()
        rid = sfile.insert(b"x" * 4060)  # 4060 + 4 == capacity
        assert (rid, sfile.num_pages) == (Rid(sfile.file_id, 0, 0), 1)

    def test_update_moves_a_record_grown_past_the_fill_factor(self):
        sfile = make_file()
        rids = [sfile.insert(b"a" * 500) for __ in range(6)]
        assert sfile.num_pages == 1
        band = b"b" * 3500
        new_rid = sfile.update(rids[0], band)
        assert (new_rid.page_no, sfile.num_pages) == (1, 2)
        assert sfile.read(rids[0]) == band

    def test_update_in_place_keeps_rid(self):
        sfile = make_file()
        rid = sfile.insert(b"small")
        new_rid = sfile.update(rid, b"still small")
        assert new_rid == rid
        assert sfile.read(rid) == b"still small"

    def test_update_grow_moves_record_with_forwarding(self):
        sfile = make_file(fill_factor=1.0)
        rids = [sfile.insert(b"a" * 500) for __ in range(8)]
        big = b"b" * 3000
        new_rid = sfile.update(rids[0], big)
        assert new_rid != rids[0]
        assert sfile.disk.counters.records_moved == 1
        # Old rid still resolves through the forwarding entry.
        assert sfile.read(rids[0]) == big
        record, actual = sfile.read_resolving(rids[0])
        assert record == big
        assert actual == new_rid

    def test_replace_is_update_for_a_reader_that_holds_the_record(self):
        """Same outcomes as ``update(actual, ...)`` -- in place, moved --
        from what ``read_resolving`` returned, and one page fetch."""
        sfile = make_file(fill_factor=1.0)
        rids = [sfile.insert(b"a" * 500) for __ in range(8)]
        record, actual = sfile.read_resolving(rids[1])
        reads = sfile.disk.counters.disk_reads
        assert sfile.replace(actual, record, b"c" * 400) == rids[1]
        assert sfile.disk.counters.disk_reads == reads + 1  # DirectPager
        assert sfile.read(rids[1]) == b"c" * 400
        record, actual = sfile.read_resolving(rids[0])
        moved = sfile.replace(actual, record, b"b" * 3000)
        assert moved != rids[0] and sfile.disk.counters.records_moved == 1
        assert sfile.read_resolving(rids[0]) == (b"b" * 3000, moved)

    def test_replace_refuses_a_record_that_is_no_longer_there(self):
        sfile = make_file()
        rid = sfile.insert(b"first")
        stale = sfile.read(rid)
        sfile.update(rid, b"second")
        with pytest.raises(RecordNotFoundError, match="no longer holds"):
            sfile.replace(rid, stale, b"third")
        assert sfile.read(rid) == b"second"

    def test_append_finds_the_tail_the_crash_left(self):
        """A crash drops the pages that were never written; the file's
        next append goes to the durable tail, not to a page that is
        gone."""
        sfile = make_file()  # DirectPager: every mark_dirty is a write
        disk = sfile.disk
        for __ in range(3):
            sfile.insert(b"x" * 3000)  # one per page, written
        lost = disk.allocate_page(sfile.file_id)  # allocated, never written
        assert (lost.page_no, sfile.num_pages) == (3, 4)
        disk.crash()
        assert sfile.num_pages == 3
        rid = sfile.insert(b"y" * 3000)
        assert (rid.page_no, sfile.num_pages) == (3, 4)
        assert sfile.read(rid) == b"y" * 3000
        assert sfile.insert(b"z").page_no == 3  # and keeps filling it

    def test_foreign_rid_rejected(self):
        sfile = make_file()
        sfile.insert(b"mine")
        for read in (sfile.read, sfile.read_resolving):
            for rid in (Rid(sfile.file_id + 1, 0, 0), NIL_RID):
                with pytest.raises(
                    RecordNotFoundError, match="does not belong to file"
                ):
                    read(rid)

    def test_negative_slot_does_not_wrap_to_the_last_record(self):
        sfile = make_file()
        for record in (b"first", b"last"):
            sfile.insert(record)
        for slot in (-1, -2, 2):
            with pytest.raises(RecordNotFoundError, match=f"no slot {slot} on"):
                sfile.read_resolving(Rid(sfile.file_id, 0, slot))

    def test_read_resolving_follows_one_hop_and_refuses_two(self):
        sfile = make_file(fill_factor=1.0)
        rids = [sfile.insert(b"a" * 500) for __ in range(8)]
        moved = sfile.update(rids[0], b"b" * 3000)
        assert sfile.read_resolving(rids[0]) == (b"b" * 3000, moved)
        assert sfile.read_resolving(moved) == (b"b" * 3000, moved)
        # ``update`` collapses chains, so a second hop is built by hand.
        further = sfile.insert(b"c" * 3000)
        sfile.pager.get_page(moved.file_id, moved.page_no).forward(
            moved.slot, further
        )
        with pytest.raises(
            RecordNotFoundError, match="chain longer than one hop"
        ):
            sfile.read_resolving(rids[0])
        assert sfile.read_resolving(moved) == (b"c" * 3000, further)
        # A hop onto a deleted slot is the slot's own error.
        sfile.pager.get_page(further.file_id, further.page_no).delete(
            further.slot
        )
        with pytest.raises(RecordNotFoundError, match="was deleted"):
            sfile.read_resolving(moved)

    @given(
        st.lists(
            st.binary(min_size=1, max_size=300), min_size=1, max_size=100
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_file_roundtrip(self, records):
        sfile = make_file()
        rids = [sfile.insert(rec) for rec in records]
        for rid, rec in zip(rids, records):
            assert sfile.read(rid) == rec
