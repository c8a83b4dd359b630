"""Failure-path tests: dangling references, oversize records, cache
stress, and other ways real workloads go wrong."""

from __future__ import annotations

import pytest

from repro.buffer import ClientServerSystem
from repro.errors import (
    DanglingReferenceError,
    ObjectError,
    RecordNotFoundError,
    RecordTooLargeError,
    SchemaError,
)
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.simtime import MemoryModel
from repro.storage import DiskManager, Rid, StorageFile

from .direct_pager import DirectPager
from repro.units import PAGE_SIZE


def make_db(extra_width: int = 16) -> Database:
    schema = Schema()
    schema.define(
        "Doc",
        [
            AttributeDef("title", AttrKind.STRING, width=extra_width),
            AttributeDef("n", AttrKind.INT32),
            AttributeDef("parts", AttrKind.REF_SET),
        ],
    )
    db = Database(schema)
    db.create_file("docs")
    return db



def delete_record(db: Database, rid: Rid) -> None:
    """Drop the record at ``rid`` from its page, as a deletion would."""
    db.file("docs").pager.get_page(rid.file_id, rid.page_no).delete(rid.slot)


class TestDanglingReferences:
    def test_deleted_target_raises(self):
        db = make_db()
        victim = db.create_object("Doc", {"n": 1}, "docs")
        owner = db.create_object("Doc", {"n": 2, "parts": [victim]}, "docs")
        delete_record(db, victim)
        handle = db.manager.load(owner)
        parts = db.manager.get_attr(handle, "parts")
        db.manager.unref(handle)
        (dangling,) = list(db.iter_set_rids(parts))
        with pytest.raises(RecordNotFoundError):
            db.manager.load(dangling)

    def test_unregistered_file_reference(self):
        db = make_db()
        with pytest.raises(DanglingReferenceError):
            db.manager.load(Rid(42, 0, 0))

    def test_handle_survives_failed_load(self):
        """A failed load must not leave a half-made handle behind."""
        db = make_db()
        rid = db.create_object("Doc", {"n": 1}, "docs")
        delete_record(db, rid)
        with pytest.raises(RecordNotFoundError):
            db.manager.load(rid)
        assert db.handles.live_count == 0


class TestOversizeRecords:
    def test_record_too_large(self):
        db = make_db(extra_width=5000)  # a 5 KB string cannot fit a page
        with pytest.raises(RecordTooLargeError):
            db.create_object("Doc", {"title": "x" * 5000, "n": 1}, "docs")

    def test_unknown_attribute_on_create_is_ignored_but_known_required(self):
        db = make_db()
        # Unknown keys in the value dict are simply not encoded.
        rid = db.create_object("Doc", {"n": 1, "bogus": 9}, "docs")
        handle = db.manager.load(rid)
        with pytest.raises(SchemaError):
            db.manager.get_attr(handle, "bogus")
        db.manager.unref(handle)


class TestCacheStress:
    def test_single_page_caches_still_correct(self):
        """Pathological configuration: one-page caches force a write-back
        on nearly every access, but no data may be lost."""
        disk = DiskManager()
        memory = MemoryModel(
            ram_bytes=100 * PAGE_SIZE,
            server_cache_bytes=PAGE_SIZE,
            client_cache_bytes=PAGE_SIZE,
            system_reserved_bytes=0,
        )
        system = ClientServerSystem(disk, memory)
        sfile = StorageFile(disk, system)
        payloads = [f"record-{i}".encode() * 10 for i in range(200)]
        rids = [sfile.insert(p) for p in payloads]
        system.shutdown()
        for rid, payload in zip(rids, payloads):
            assert sfile.read(rid) == payload

    def test_interleaved_updates_under_tiny_cache(self):
        disk = DiskManager()
        memory = MemoryModel(
            ram_bytes=100 * PAGE_SIZE,
            server_cache_bytes=PAGE_SIZE,
            client_cache_bytes=2 * PAGE_SIZE,
            system_reserved_bytes=0,
        )
        system = ClientServerSystem(disk, memory)
        sfile = StorageFile(disk, system)
        rids = [sfile.insert(b"v0" + bytes([i % 250])) for i in range(300)]
        for i, rid in enumerate(rids):
            sfile.update(rid, b"v1" + bytes([i % 250]))
        system.shutdown()
        for i, rid in enumerate(rids):
            assert sfile.read(rid) == b"v1" + bytes([i % 250])


class TestDatabaseMisuse:
    def test_double_file_creation(self):
        db = make_db()
        with pytest.raises(ObjectError):
            db.create_file("docs")

    def test_unknown_class(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.create_object("Ghost", {}, "docs")

    def test_unknown_file(self):
        db = make_db()
        with pytest.raises(ObjectError):
            db.create_object("Doc", {"n": 1}, "ghost-file")

    def test_iter_set_rids_rejects_non_set(self):
        db = make_db()
        with pytest.raises(SchemaError):
            list(db.iter_set_rids("not a set"))

    def test_update_scalar_on_set_attr_rejected(self):
        db = make_db()
        rid = db.create_object("Doc", {"n": 1}, "docs")
        with pytest.raises(SchemaError):
            db.manager.update_scalar(rid, "parts", [])


class TestForwardingChains:
    def test_repeated_growth_keeps_old_rids_resolvable(self):
        """Grow the same record several times: the original rid must
        keep resolving (single-hop forwarding is maintained by always
        re-forwarding from the original slot)."""
        disk = DiskManager()
        sfile = StorageFile(disk, DirectPager(disk), fill_factor=1.0)
        filler = [sfile.insert(b"f" * 900) for __ in range(4)]
        del filler
        rid = sfile.insert(b"s")
        current = rid
        for size in (2000, 2500, 3000):
            current = sfile.update(current, b"x" * size)
        assert sfile.read(rid) == b"x" * 3000

    def test_chain_collapses_when_updating_through_original_rid(self):
        """Move a record repeatedly *through its original rid*: the
        forwarding pointer must follow it (no multi-hop chains)."""
        disk = DiskManager()
        sfile = StorageFile(disk, DirectPager(disk), fill_factor=1.0)
        for __ in range(4):
            sfile.insert(b"f" * 900)
        rid = sfile.insert(b"s")
        # Each update grows the record to a size that cannot stay on its
        # current page (alongside a fresh filler), always addressing it
        # by the ORIGINAL rid.
        for size in (2000, 3500, 3900):
            moved = sfile.update(rid, b"y" * size)
            assert moved != rid
            sfile.insert(b"f" * 500)  # make the new page tight
        record, actual = sfile.read_resolving(rid)
        assert record == b"y" * 3900
        assert actual != rid
