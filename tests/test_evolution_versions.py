"""Tests for dynamic class evolution and object versioning — the O2
features Section 4.4 cites among the reasons handles and headers are
heavy."""

from __future__ import annotations

import pytest

from repro.errors import ObjectError, SchemaError
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.objects.codec import InlineSet
from repro.objects.header import FLAG_VERSIONED, ObjectHeader
from repro.objects.versions import VersionManager
from repro.storage.rid import Rid


def make_db() -> Database:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
        ],
    )
    db = Database(schema)
    db.create_file("patients")
    return db


class TestSchemaEvolution:
    def test_evolve_bumps_version(self):
        db = make_db()
        evolved = db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=0)]
        )
        assert evolved.schema_version == 1
        assert db.schema.cls("Patient") is evolved
        assert db.schema.class_version(evolved.class_id, 0).schema_version == 0

    def test_old_records_decode_with_old_layout(self):
        db = make_db()
        old_rid = db.create_object("Patient", {"name": "a", "mrn": 1}, "patients")
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=-1)]
        )
        # The old record still reads fine...
        assert db.manager.get_attr_at(old_rid, "mrn") == 1
        # ...and the new attribute reports its default.
        assert db.manager.get_attr_at(old_rid, "age") == -1

    def test_new_records_use_new_layout(self):
        db = make_db()
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=-1)]
        )
        rid = db.create_object(
            "Patient", {"name": "b", "mrn": 2, "age": 33}, "patients"
        )
        assert db.manager.get_attr_at(rid, "age") == 33
        record, class_def = db.manager.read_record(rid)
        assert ObjectHeader.peek_schema_version(record) == 1
        assert class_def.schema_version == 1

    def test_class_of_follows_evolution_whichever_side_is_read_first(self):
        """``class_of`` remembers a header's class; the version byte is
        part of what it remembers it by, so an ``evolve`` after (or
        before) the first read changes nothing about either answer."""
        for read_old_first in (True, False):
            db = make_db()
            old = db.create_object("Patient", {"name": "a", "mrn": 1}, "patients")
            if read_old_first:
                assert db.manager.read_record(old)[1].schema_version == 0
            evolved = db.schema.evolve(
                "Patient", [AttributeDef("age", AttrKind.INT32, default=-1)]
            )
            new = db.create_object(
                "Patient", {"name": "b", "mrn": 2, "age": 33}, "patients"
            )
            for rid in (new, old, new):
                record, class_def = db.manager.read_record(rid)
                assert class_def is db.manager.class_of(record)
                assert class_def is db.schema.class_version(
                    ObjectHeader.peek_class_id(record),
                    ObjectHeader.peek_schema_version(record),
                )
            assert db.manager.read_record(new)[1] is evolved
            assert db.manager.read_record(old)[1].schema_version == 0
            assert db.manager.get_attr_at(new, "age") == 33
            assert db.manager.get_attr_at(old, "age") == -1

    def test_upgrade_record(self):
        db = make_db()
        old_rid = db.create_object("Patient", {"name": "a", "mrn": 1}, "patients")
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=7)]
        )
        new_rid = db.manager.upgrade_record(old_rid)
        record, class_def = db.manager.read_record(new_rid)
        assert class_def.schema_version == 1
        assert db.manager.get_attr_at(new_rid, "age") == 7
        assert db.manager.get_attr_at(new_rid, "mrn") == 1

    def test_upgrade_keeps_handles_in_step_under_the_forwarded_address(self):
        """A record that moved is cached under two addresses: the one
        its references hold and the one it lives at.  ``upgrade_record``
        must leave neither with the old class on the new layout -- a
        parked handle under the second one used to, and the set read
        back empty."""
        db = make_db()
        db.schema.define(
            "Provider",
            [
                AttributeDef("upin", AttrKind.INT32),
                AttributeDef("clients", AttrKind.REF_SET, target="Patient"),
            ],
        )
        db.create_file("providers")
        first, *__ = [
            db.create_object("Provider", {"upin": i}, "providers")
            for i in range(120)
        ]
        members = tuple(Rid(0, i, 0) for i in range(300))
        actual = db.manager.update_set(first, "clients", InlineSet(members))
        assert actual != first  # grew off its page: forwarded
        for address in (first, actual):  # parks a handle under each
            assert db.manager.get_attr_at(address, "clients").rids == members
        db.schema.evolve(
            "Provider", [AttributeDef("rating", AttrKind.INT32, default=5)]
        )
        with db.manager.borrow(first) as live:
            assert db.manager.upgrade_record(first) == actual
            assert live.class_def.schema_version == live.record[4] == 1
            assert db.manager.get_attr(live, "clients").rids == members
        for address in (first, actual):
            with db.manager.borrow(address) as handle:
                assert handle.class_def.schema_version == handle.record[4] == 1
                assert db.manager.get_attr(handle, "clients").rids == members
                assert db.manager.get_attr(handle, "rating") == 5

    def test_upgrade_is_idempotent(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.schema.evolve("Patient", [AttributeDef("age", AttrKind.INT32)])
        once = db.manager.upgrade_record(rid)
        again = db.manager.upgrade_record(once)
        assert once == again

    def test_update_after_upgrade(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=0)]
        )
        rid = db.manager.upgrade_record(rid)
        db.manager.update_scalar(rid, "age", 55)
        assert db.manager.get_attr_at(rid, "age") == 55

    def test_mixed_versions_scan_consistently(self):
        db = make_db()
        old = [
            db.create_object("Patient", {"mrn": i}, "patients")
            for i in range(5)
        ]
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=99)]
        )
        new = [
            db.create_object("Patient", {"mrn": 5 + i, "age": i}, "patients")
            for i in range(5)
        ]
        ages = [db.manager.get_attr_at(r, "age") for r in old + new]
        assert ages == [99] * 5 + list(range(5))

    def test_duplicate_attribute_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.schema.evolve("Patient", [AttributeDef("mrn", AttrKind.INT32)])

    def test_set_attribute_evolution_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.schema.evolve(
                "Patient", [AttributeDef("friends", AttrKind.REF_SET)]
            )

    def test_unknown_version_rejected(self):
        db = make_db()
        cls = db.schema.cls("Patient")
        with pytest.raises(SchemaError):
            db.schema.class_version(cls.class_id, 3)

    def test_string_default(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.schema.evolve(
            "Patient",
            [AttributeDef("city", AttrKind.STRING, default="Paris")],
        )
        assert db.manager.get_attr_at(rid, "city") == "Paris"
        fresh = db.create_object("Patient", {"mrn": 2}, "patients")
        # Omitted on creation -> encoded default.
        assert db.manager.get_attr_at(fresh, "city") == "Paris"


class TestObjectVersioning:
    def test_snapshot_read_restore(self):
        db = make_db()
        rid = db.create_object("Patient", {"name": "v1", "mrn": 1}, "patients")
        versions = VersionManager(db)
        info = versions.snapshot(rid, label="initial")
        assert info.version_no == 1
        db.manager.update_scalar(rid, "name", "v2")
        assert db.manager.get_attr_at(rid, "name") == "v2"
        assert versions.read_version(rid, 1)["name"] == "v1"
        versions.restore(rid, 1)
        assert db.manager.get_attr_at(rid, "name") == "v1"

    def test_version_chain(self):
        db = make_db()
        rid = db.create_object("Patient", {"name": "a", "mrn": 1}, "patients")
        versions = VersionManager(db)
        for i in range(3):
            db.manager.update_scalar(rid, "mrn", i)
            versions.snapshot(rid, label=f"step{i}")
        chain = versions.versions(rid)
        assert [v.version_no for v in chain] == [1, 2, 3]
        assert [versions.read_version(rid, v.version_no)["mrn"] for v in chain] == [
            0,
            1,
            2,
        ]

    def test_first_snapshot_marks_versioned_flag(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        VersionManager(db).snapshot(rid)
        record, __ = db.manager.read_record(rid)
        assert ObjectHeader.decode(record).flags & FLAG_VERSIONED

    def test_unknown_version_rejected(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        versions = VersionManager(db)
        with pytest.raises(ObjectError):
            versions.read_version(rid, 1)
        versions.snapshot(rid)
        with pytest.raises(ObjectError):
            versions.read_version(rid, 2)

    def test_snapshots_charge_time(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.reset_meters()
        VersionManager(db).snapshot(rid)
        assert db.clock.elapsed_s > 0

    def test_snapshot_survives_schema_evolution(self):
        db = make_db()
        rid = db.create_object("Patient", {"name": "old", "mrn": 1}, "patients")
        versions = VersionManager(db)
        versions.snapshot(rid)
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=3)]
        )
        rid = db.manager.upgrade_record(rid)
        # The old snapshot still decodes with its own (v0) layout.
        assert versions.read_version(rid, 1)["name"] == "old"
        assert "age" not in versions.read_version(rid, 1)

    def test_restore_across_an_upgrade_keeps_handles_in_step(self):
        """Restoring a snapshot taken before an upgrade puts the old
        layout back: a cached handle must get the old class with it."""
        db = make_db()
        rid = db.create_object("Patient", {"name": "old", "mrn": 1}, "patients")
        versions = VersionManager(db)
        versions.snapshot(rid)
        db.schema.evolve(
            "Patient", [AttributeDef("age", AttrKind.INT32, default=3)]
        )
        rid = db.manager.upgrade_record(rid)
        db.manager.update_scalar(rid, "age", 40)
        with db.manager.borrow(rid) as live:
            versions.restore(rid, 1)
            assert live.class_def.schema_version == live.record[4] == 0
            assert db.manager.get_attr(live, "age") == 3  # the default again
        assert db.manager.get_attr_at(rid, "name") == "old"
        assert db.manager.get_attr_at(rid, "age") == 3
