"""Unit tests for handles, the object manager and the database."""

from __future__ import annotations

import struct

import pytest

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.schema import build_derby_schema
from repro.errors import (
    DanglingReferenceError,
    HandleError,
    ObjectError,
    SchemaError,
)
from repro.objects import (
    AttrKind,
    AttributeDef,
    Database,
    HandleMode,
    Schema,
)
from repro.objects.codec import InlineSet, OverflowSet
from repro.objects.handle import DELAYED_FREE_CAPACITY, Handle
from repro.objects.header import FLAG_INDEXED, ObjectHeader
from repro.simtime import Bucket, CostParams
from repro.storage.rid import Rid


def derby_like_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("age", AttrKind.INT32),
            AttributeDef("primary_care_provider", AttrKind.REF, target="Provider"),
        ],
    )
    schema.define(
        "Provider",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("upin", AttrKind.INT32),
            AttributeDef("clients", AttrKind.REF_SET, target="Patient"),
        ],
    )
    return schema


def make_db(handle_mode: HandleMode = HandleMode.FULL) -> Database:
    db = Database(derby_like_schema(), handle_mode=handle_mode)
    db.create_file("patients")
    db.create_file("providers")
    return db


# ------------------------------------------------------------- HandleTable

class TestHandleTable:
    """The handle table, driven through the bracket that runs it:
    ``om.borrow`` gets a handle, ``Handle.__exit__`` unreferences it and
    ``get_attr`` pays a literal's handle."""

    def make(self, mode=HandleMode.FULL, capacity=4, patients=1):
        """A database whose ``patients`` records sit on cached pages, so
        a handle miss reads its record free, with no handle held and the
        meters at zero."""
        db = make_db(mode)
        db.handles.delayed_free_capacity = capacity
        rids = [
            db.create_object("Patient", {"name": "p", "mrn": i}, "patients")
            for i in range(patients)
        ]
        for rid in rids:
            db.manager.read_record(rid)
        db.handles.clear()
        db.reset_meters()
        return db, rids

    def test_get_allocates_once_and_shares(self):
        db, (rid,) = self.make()
        h1 = db.manager.borrow(rid)
        h2 = db.manager.borrow(rid)
        assert h1 is h2
        assert h1.refcount == 2
        assert db.counters.handles_allocated == 1

    def test_unreference_parks_then_revives(self):
        db, (rid,) = self.make()
        h = db.manager.borrow(rid)
        h.__exit__(None, None, None)
        assert db.handles.live_count == 0
        assert db.handles._parked_count == 1
        revived = db.manager.borrow(rid)
        assert revived is h
        assert db.handles._parked_count == 0
        # Revival must not count as a fresh allocation.
        assert db.counters.handles_allocated == 1

    def test_double_unreference_rejected(self):
        db, (rid,) = self.make()
        h = db.manager.borrow(rid)
        h.__exit__(None, None, None)
        with pytest.raises(HandleError):
            h.__exit__(None, None, None)

    def test_delayed_free_capacity_bounds_parked(self):
        db, rids = self.make(capacity=2, patients=5)
        for rid in rids:
            with db.manager.borrow(rid):
                pass
        assert db.handles._parked_count == 2

    def test_full_mode_charges_more_than_bulk(self):
        def cost(mode):
            db, rids = self.make(mode, patients=100)
            for rid in rids:
                with db.manager.borrow(rid):
                    pass
            return db.clock.buckets.get(Bucket.HANDLE, 0.0)

        assert cost(HandleMode.FULL) > 5 * cost(HandleMode.BULK)

    def test_literal_charges_by_mode(self):
        def literal_cost(mode):
            db, (rid,) = self.make(mode)
            handle = db.manager.borrow(rid)
            db.clock.reset()
            db.manager.get_attr(handle, "name")  # a fixed-size literal
            return db.clock.buckets.get(Bucket.HANDLE, 0.0)

        assert literal_cost(HandleMode.FULL) > literal_cost(
            HandleMode.COMPACT_LITERALS
        )
        assert literal_cost(HandleMode.INLINE_TUPLES) == 0.0

    def test_inline_tuples_still_charges_variable_literals(self):
        db, __ = self.make(HandleMode.INLINE_TUPLES)
        provider = db.create_object("Provider", {"upin": 2}, "providers")
        handle = db.manager.borrow(provider)
        db.clock.reset()
        db.manager.get_attr(handle, "clients")  # a variable-size literal
        assert db.clock.buckets.get(Bucket.HANDLE, 0.0) > 0.0

    @pytest.mark.parametrize("mode", list(HandleMode))
    def test_charges_are_the_per_mode_formulas_bit_for_bit(self, mode):
        """The table prices each operation once per ``(params, mode)``;
        the price must be the float the paper's formula gives."""
        p = CostParams()
        factor = p.bulk_handle_factor if mode is HandleMode.BULK else None

        def scaled(us):
            return us if factor is None else us * factor

        def charged(step, provider=False):
            db, (rid,) = self.make(mode)
            if provider:
                rid = db.create_object("Provider", {"upin": 2}, "providers")
                db.reset_meters()
            step(db.manager, rid, db.clock)
            return db.clock.breakdown()

        def hit(om, rid, clock):
            om.borrow(rid)
            clock.reset()
            om.borrow(rid)

        def unref(om, rid, clock):
            handle = om.borrow(rid)
            clock.reset()
            handle.__exit__(None, None, None)

        def literal(name):
            def read(om, rid, clock):
                handle = om.borrow(rid)
                clock.reset()
                om.get_attr(handle, name)
            return read

        miss = charged(lambda om, rid, clock: om.borrow(rid))
        assert miss == {"handle": scaled(p.handle_get_us * 1.0) / 1e6}
        assert charged(hit) == {"handle": scaled(p.handle_get_us * 0.1) / 1e6}
        assert charged(unref) == {"handle": scaled(p.handle_unref_us) / 1e6}
        full_pair = p.handle_get_us + p.handle_unref_us
        compact_pair = p.compact_handle_get_us + p.compact_handle_unref_us
        fixed, variable = {
            HandleMode.FULL: (full_pair, full_pair),
            HandleMode.COMPACT_LITERALS: (compact_pair, compact_pair),
            HandleMode.INLINE_TUPLES: (None, compact_pair),
            HandleMode.BULK: (full_pair * factor if factor else None,) * 2,
        }[mode]
        decode = {"cpu": p.attr_decode_us / 1e6}

        def priced(us):
            return decode if us is None else {**decode, "handle": us / 1e6}

        assert charged(literal("mrn")) == decode  # no literal
        assert charged(literal("name")) == priced(fixed)
        assert charged(literal("clients"), provider=True) == priced(variable)

    def test_switching_mode_reprices_an_existing_table(self):
        """The Section 4.4 ablation flips ``mode`` on a loaded database."""
        db, (rid,) = self.make(HandleMode.FULL)
        assert db.handles.mode is HandleMode.FULL
        db.handles.mode = HandleMode.BULK
        assert db.handles.mode is HandleMode.BULK
        handle = db.manager.borrow(rid)
        p = CostParams()
        assert db.clock.breakdown() == {
            "handle": p.handle_get_us * 1.0 * p.bulk_handle_factor / 1e6
        }
        db.handles.mode = HandleMode.INLINE_TUPLES
        db.clock.reset()
        db.manager.get_attr(handle, "name")
        assert db.clock.breakdown() == {"cpu": p.attr_decode_us / 1e6}

    def test_get_is_reference_or_allocate(self):
        """Get handle is one decision: a hit re-references the handle and
        reads nothing; a miss reads the record once and allocates."""
        db, (rid,) = self.make()
        handle = db.manager.borrow(rid)
        assert db.counters.client_hits == 1  # the miss read its record
        assert db.manager.borrow(rid) is handle and handle.refcount == 2
        assert db.counters.client_hits == 1  # the hit read nothing
        assert db.counters.handles_allocated == 1


# ------------------------------------------------------------- ObjectManager

class TestObjectManager:
    def test_create_load_get_attr(self):
        db = make_db()
        rid = db.create_object(
            "Patient", {"name": "Daisy", "mrn": 44, "age": 61}, "patients"
        )
        handle = db.manager.load(rid)
        assert db.manager.get_attr(handle, "mrn") == 44
        assert db.manager.get_attr(handle, "name") == "Daisy"
        db.manager.unref(handle)

    def test_get_attr_at_convenience(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 3}, "patients")
        assert db.manager.get_attr_at(rid, "mrn") == 3
        assert db.handles.live_count == 0

    def test_reference_navigation(self):
        db = make_db()
        doc = db.create_object("Provider", {"name": "Asterix", "upin": 1}, "providers")
        pat = db.create_object(
            "Patient", {"name": "Obelix", "mrn": 2, "primary_care_provider": doc},
            "patients",
        )
        handle = db.manager.load(pat)
        doc_rid = db.manager.get_attr(handle, "primary_care_provider")
        db.manager.unref(handle)
        assert db.manager.get_attr_at(doc_rid, "name") == "Asterix"

    def test_unregistered_file_raises(self):
        db = make_db()

        def fetch(rid):  # no page of the file is resident: borrow's miss
            return db.manager.fetch([rid], lambda om, handle: None, [])

        for read in (
            db.manager.load, db.manager.read_record, db.manager.file_for, fetch
        ):
            with pytest.raises(
                DanglingReferenceError,
                match="rid @99:0.0 points into an unregistered file",
            ):
                read(Rid(99, 0, 0))

    def test_class_of_is_the_schema_lookup_at_any_index_slot_count(self):
        """The table's key spans the slot-count byte, which does not
        change the answer: 0, 8 and 16 slots are one class."""
        db = make_db()
        patient = db.schema.cls("Patient")
        bare = db.create_object("Patient", {"mrn": 1}, "patients")
        indexed = db.create_object("Patient", {"mrn": 2}, "patients", (1,))
        grown = db.create_object("Patient", {"mrn": 3}, "patients", (1,))
        for index_id in range(2, 10):  # the ninth index grows the header
            pairs: list = []
            db.manager.stamp_index((grown,), index_id, "mrn", pairs)
            [(__, grown)] = pairs
        provider = db.create_object("Provider", {"upin": 1}, "providers")
        for rid, slots, class_def in (
            (bare, 0, patient), (indexed, 8, patient), (grown, 16, patient),
            (provider, 0, db.schema.cls("Provider")),
        ):
            for __ in range(2):  # filled, then found
                record, found = db.manager.read_record(rid)
                assert ObjectHeader.decode(record).slot_count == slots
                assert found is class_def is db.manager.class_of(record)
                assert found is db.schema.by_id(ObjectHeader.peek_class_id(record))
        assert db.manager.get_attr_at(grown, "mrn") == 3

    def test_class_of_does_not_remember_what_it_could_not_resolve(self):
        db = make_db()
        unknown_class = ObjectHeader(class_id=3).encode() + b"payload"
        for __ in range(2):  # raises what the schema raises, every time
            with pytest.raises(struct.error):
                db.manager.class_of(b"\x01\x01\x00")  # no room for a header
            with pytest.raises(struct.error):
                db.manager.class_of(b"")
            with pytest.raises(SchemaError, match="unknown class id 3"):
                db.manager.class_of(unknown_class)
        # Not remembered as a failure either: once the schema knows the
        # class, the same bytes resolve.
        third = db.schema.define("Clinic", [AttributeDef("beds", AttrKind.INT32)])
        assert db.manager.class_of(unknown_class) is third

    def test_update_scalar_visible_to_later_loads(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1, "age": 10}, "patients")
        db.manager.update_scalar(rid, "age", 11)
        assert db.manager.get_attr_at(rid, "age") == 11

    def test_update_refreshes_live_handle(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1, "age": 10}, "patients")
        handle = db.manager.load(rid)
        db.manager.update_scalar(rid, "age", 12)
        assert db.manager.get_attr(handle, "age") == 12
        db.manager.unref(handle)

    def test_string_attr_pays_literal_handle_in_full_mode(self):
        full = make_db(HandleMode.FULL)
        inline = make_db(HandleMode.INLINE_TUPLES)
        for db in (full, inline):
            rid = db.create_object("Patient", {"name": "Daisy", "mrn": 1}, "patients")
            db.reset_meters()
            handle = db.manager.load(rid)
            db.manager.get_attr(handle, "name")
            db.manager.unref(handle)
        assert full.clock.buckets.get(Bucket.HANDLE, 0.0) > inline.clock.buckets.get(Bucket.HANDLE, 0.0)

    def test_indexed_object_header_reserves_slots(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients", (1,))
        with db.manager.borrow(rid) as handle:
            header = ObjectHeader.decode(handle.record)
        assert header.flags & FLAG_INDEXED
        assert header.slot_count == 8
        assert header.index_ids == [1]


class TestBorrow:
    """``with om.borrow(rid) as h:`` -- Figure 8's get/unreference
    bracket, exception-safe."""

    def make(self):
        db = make_db()
        rid = db.create_object("Patient", {"name": "Daisy", "mrn": 44}, "patients")
        db.reset_meters()
        return db, rid

    def test_bracket_loads_then_parks(self):
        db, rid = self.make()
        with db.manager.borrow(rid) as handle:
            assert handle.refcount == 1
            assert db.handles.live_count == 1
            assert db.manager.get_attr(handle, "mrn") == 44
        assert handle.refcount == 0
        assert (db.handles.live_count, db.handles._parked_count) == (0, 1)
        assert db.counters.handles_unreferenced == 1

    def test_bracket_charges_what_load_and_unref_charge(self):
        db, rid = self.make()
        with db.manager.borrow(rid):
            pass
        bracket = db.clock.breakdown()
        other, other_rid = self.make()
        other.manager.unref(other.manager.load(other_rid))
        assert bracket == other.clock.breakdown()
        assert db.counters.snapshot() == other.counters.snapshot()

    def test_body_raising_still_unreferences(self):
        db, rid = self.make()
        with pytest.raises(ZeroDivisionError):
            with db.manager.borrow(rid) as handle:
                1 / 0
        assert handle.refcount == 0
        assert (db.handles.live_count, db.handles._parked_count) == (0, 1)
        assert db.counters.handles_unreferenced == 1
        # The parked handle is the one a later bracket revives.
        with db.manager.borrow(rid) as again:
            assert again is handle

    def test_load_raising_propagates_and_leaks_nothing(self):
        db, __ = self.make()
        with pytest.raises(DanglingReferenceError):
            with db.manager.borrow(Rid(99, 0, 0)):
                raise AssertionError("the body must not run")
        assert (db.handles.live_count, db.handles._parked_count) == (0, 0)
        assert db.counters.handles_unreferenced == 0

    def test_nested_brackets_share_one_handle(self):
        db, rid = self.make()
        with db.manager.borrow(rid) as outer:
            with db.manager.borrow(rid) as inner:
                assert inner is outer
                assert outer.refcount == 2
            assert outer.refcount == 1
            assert db.handles.live_count == 1
        assert outer.refcount == 0
        assert db.counters.handles_allocated == 1
        assert db.counters.handles_unreferenced == 2

    def test_each_call_is_its_own_bracket(self):
        db, rid = self.make()
        other = db.create_object("Patient", {"mrn": 45}, "patients")
        first, second = db.manager.borrow(rid), db.manager.borrow(other)
        with first as a, second as b:
            assert (a.rid, b.rid) == (rid, other)
        assert db.handles.live_count == 0

    def test_bracket_resolves_through_an_installed_read_view(self):
        from repro.txn import TransactionManager

        db, rid = self.make()
        db.shutdown()
        txm = TransactionManager(db, recovery=True)
        reader = txm.begin(isolation="si")
        with txm.begin() as writer:
            writer.update_scalar(rid, "mrn", 100)
        om = db.manager
        with om.borrow(rid) as live:
            assert om.get_attr(live, "mrn") == 100
            assert live.version is None
        om.read_view = reader.view
        try:
            with om.borrow(rid) as seen:
                assert seen.version is not None
                assert om.get_attr(seen, "mrn") == 44
                assert db.handles.live_count == 1
            assert seen.refcount == 0
            assert db.handles.live_count == 0  # version handles are freed
        finally:
            om.read_view = None
        reader.commit()

    def test_simlint_still_polices_the_bracket(self):
        """ESCAPE and PAIR match ``borrow``/``load``/``unref`` by name:
        the fixtures must still fire, and the bracket's own
        implementation must still be clean."""
        from pathlib import Path

        from repro.lint import lint_paths

        here = Path(__file__).resolve().parent

        def lint(path, rule):
            return lint_paths((str(path),), (rule,)).findings

        fixtures = here / "lint_fixtures"
        assert len(lint(fixtures / "escape" / "escape_bad.py", "ESCAPE")) == 5
        assert len(lint(fixtures / "pair_leak.py", "PAIR")) == 1
        manager = here.parent / "src" / "repro" / "objects" / "manager.py"
        assert lint(manager, "PAIR") == []
        assert lint(manager, "ESCAPE") == []


# ------------------------------------------------------------- Database

class TestDatabase:
    def test_file_management(self):
        db = make_db()
        assert db.has_file("patients")
        with pytest.raises(ObjectError):
            db.create_file("patients")
        with pytest.raises(ObjectError):
            db.file("ghost")

    def test_named_collections(self):
        db = make_db()
        coll = db.new_collection("Patients")
        assert coll.name == "Patients"
        with pytest.raises(ObjectError):
            db.new_collection("Patients")

    def test_collection_roundtrip_small(self):
        db = make_db()
        coll = db.new_collection("Patients")
        rids = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(10)
        ]
        for rid in rids:
            coll.append(rid)
        assert list(coll.iter_rids()) == rids
        assert len(coll) == 10

    def test_collection_roundtrip_multi_chunk(self):
        db = make_db()
        coll = db.new_collection("Patients")
        rids = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(950)
        ]
        for rid in rids:
            coll.append(rid)
        assert list(coll.iter_rids()) == rids
        # 950 rids at 400/chunk -> 3 chunk records
        assert db.collections_file.record_count == 3

    def test_collection_iteration_charges_io(self):
        db = make_db()
        coll = db.new_collection("Patients")
        for i in range(500):
            coll.append(db.create_object("Patient", {"mrn": i}, "patients"))
        coll.flush()
        db.restart_cold()
        db.reset_meters()
        list(coll.iter_rids())
        assert db.counters.disk_reads >= 1

    def test_small_set_stays_inline(self):
        db = make_db()
        pats = [db.create_object("Patient", {"mrn": i}, "patients") for i in range(3)]
        doc = db.create_object(
            "Provider", {"name": "D", "upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        assert isinstance(clients, InlineSet)
        assert list(db.iter_set_rids(clients)) == pats

    @pytest.mark.parametrize("n_clients", [419, 420, 425])
    def test_largest_inline_sets_fit_a_page(self, n_clients):
        """``INLINE_SET_LIMIT_BYTES`` admits 425 rids inline; an indexed
        Derby Provider with 420-425 clients is 3.46-3.50 KB -- more than
        a page less its 15 % growth slack, which once made it unstorable
        (``PageFullError`` on a fresh page, and the page leaked)."""
        db = Database(build_derby_schema())
        providers = db.create_file("providers")
        db.create_object("Provider", {"upin": 0}, "providers", (1,))
        pats = [Rid(0, i, 0) for i in range(n_clients)]
        doc = db.create_object(
            "Provider", {"upin": 1, "clients": pats}, "providers", (1,)
        )
        clients = db.manager.get_attr_at(doc, "clients")
        assert isinstance(clients, InlineSet) and list(clients.rids) == pats
        assert (doc.page_no, providers.num_pages) == (1, 2)

    def test_update_set_grows_a_record_to_the_inline_limit(self):
        db = Database(build_derby_schema())
        providers = db.create_file("providers")
        docs = [
            db.create_object(
                "Provider", {"upin": i, "clients": [Rid(0, 0, 0)] * 100},
                "providers", (1,),
            )
            for i in range(3)
        ]
        assert providers.num_pages == 1
        pats = [Rid(0, i, 0) for i in range(425)]
        moved = db.manager.update_set(docs[0], "clients", db.prepare_set(pats))
        assert (moved.page_no, providers.num_pages) == (1, 2)
        assert list(db.manager.get_attr_at(docs[0], "clients").rids) == pats

    def test_large_set_spills_to_collection_file(self):
        db = make_db()
        pats = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(1000)
        ]
        doc = db.create_object(
            "Provider", {"name": "D", "upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        assert isinstance(clients, OverflowSet)
        assert clients.count == 1000
        assert list(db.iter_set_rids(clients)) == pats
        # 1000 rids / 400 per chunk -> 3 chained chunk records
        assert db.collections_file.record_count == 3

    def test_overflow_set_iteration_charges_io(self):
        db = make_db()
        pats = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(1000)
        ]
        doc = db.create_object(
            "Provider", {"upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        db.restart_cold()
        db.reset_meters()
        assert len(list(db.iter_set_rids(clients))) == 1000
        assert db.counters.disk_reads >= 3

    def test_restart_cold_clears_everything(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.manager.get_attr_at(rid, "mrn")
        db.restart_cold()
        assert db.handles.live_count == 0
        db.reset_meters()
        db.manager.get_attr_at(rid, "mrn")
        assert db.counters.disk_reads >= 1  # truly cold again

    def test_object_creation_charges_load_bucket(self):
        db = make_db()
        db.reset_meters()
        db.create_object("Patient", {"mrn": 1}, "patients")
        assert db.clock.buckets.get(Bucket.LOAD, 0.0) > 0


# ------------------------------------------------------ restart recycling

class TestRestartRecycling:
    """A cold restart hands the parked handles it forgets to the next
    misses instead of to the allocator: host memory only, so a cold
    cell run twice counts, charges and returns the same either way."""

    @pytest.fixture
    def runner(self):
        return ExperimentRunner(load_derby(DerbyConfig.db_1to3(scale=0.0003)))

    def test_a_held_handle_is_never_handed_out_again(self, runner):
        runner.run_join("NOJOIN", 30, 50)
        table = runner.derby.db.handles
        kept = next(iter(table._handles.values()))
        assert kept.refcount == 0
        rid = kept.rid
        runner.run_join("NOJOIN", 30, 50)  # restarts cold first
        assert all(handle is not kept for handle in table._handles.values())
        assert (kept.rid, kept.refcount) == (rid, 0)

    def test_a_second_cold_cell_constructs_no_handle(self, runner, monkeypatch):
        first = runner.run_join("NOJOIN", 30, 50)
        assert 0 < first.meters.handles_allocated < DELAYED_FREE_CAPACITY
        built = 0
        init = Handle.__init__

        def counting(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Handle, "__init__", counting)
        second = runner.run_join("NOJOIN", 30, 50)
        monkeypatch.undo()
        assert built == 0
        assert second.meters.handles_allocated == first.meters.handles_allocated
        assert second.breakdown["handle"] == first.breakdown["handle"]
        assert second.elapsed_s == first.elapsed_s
        assert second == first
