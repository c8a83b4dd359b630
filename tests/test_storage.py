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
from repro.storage import DirectPager, DiskManager, Page, Rid, StorageFile
from repro.storage.page import PAGE_HEADER_SIZE, SLOT_OVERHEAD
from repro.storage.rid import NIL_RID, is_nil
from repro.units import PAGE_SIZE, pages_for_bytes


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
        assert is_nil(NIL_RID)
        assert not is_nil(Rid(0, 0, 0))

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
        assert page.fits(b"x" * 60)
        assert not page.fits(b"x" * 60, slack=40)
        with pytest.raises(PageFullError):
            page.insert(b"x" * 60, slack=40)

    def test_update_in_place(self):
        page = Page(0, 0)
        slot = page.insert(b"aaaa")
        assert page.update(slot, b"bbbbbbbb")
        assert page.read(slot) == b"bbbbbbbb"

    def test_update_refuses_when_page_cannot_grow(self):
        page = Page(0, 0, page_size=128)
        slot = page.insert(b"x" * 90)
        assert page.update(slot, b"y" * 200) is False
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
            if not page.fits(rec):
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
            if page.fits(rec):
                page.insert(rec)
        assert page.used_bytes + page.free_bytes == page.capacity


# ---------------------------------------------------------------- Disk

class TestDiskManager:
    def test_create_files(self):
        disk = DiskManager()
        f0, f1 = disk.create_file(), disk.create_file()
        assert f0 != f1
        assert disk.file_ids() == [f0, f1]
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

    def test_scan_yields_each_live_record_once(self):
        sfile = make_file()
        payloads = [f"rec-{i}".encode() for i in range(200)]
        for p in payloads:
            sfile.insert(p)
        scanned = [record for __, record in sfile.scan()]
        assert scanned == payloads

    def test_scan_skips_forwarded_slot_but_keeps_record(self):
        sfile = make_file(fill_factor=1.0)
        rids = [sfile.insert(b"a" * 500) for __ in range(8)]
        sfile.update(rids[0], b"b" * 3000)
        scanned = [record for __, record in sfile.scan()]
        assert scanned.count(b"b" * 3000) == 1
        assert len(scanned) == 8

    def test_delete(self):
        sfile = make_file()
        rid = sfile.insert(b"doomed")
        sfile.delete(rid)
        assert sfile.record_count == 0
        with pytest.raises(RecordNotFoundError):
            sfile.read(rid)

    def test_foreign_rid_rejected(self):
        sfile = make_file()
        with pytest.raises(RecordNotFoundError):
            sfile.read(Rid(sfile.file_id + 1, 0, 0))

    def test_scan_charges_one_read_per_page(self):
        sfile = make_file()
        for __ in range(100):
            sfile.insert(b"x" * 100)
        sfile.disk.counters.reset()
        list(sfile.scan())
        assert sfile.disk.counters.disk_reads == sfile.num_pages

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
        assert [r for __, r in sfile.scan()] == records
