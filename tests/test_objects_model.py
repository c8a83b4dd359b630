"""Unit tests for the class model, headers and record codec."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.objects import Database
from repro.objects.codec import (
    InlineSet,
    OverflowSet,
    RecordCodec,
    decode_rid,
    encode_rid,
)
from repro.objects.header import (
    FLAG_INDEXED,
    FLAG_PERSISTENT,
    INDEX_SLOT_BLOCK,
    ObjectHeader,
)
from repro.objects.model import AttrKind, AttributeDef, Schema
from repro.storage.rid import NIL_RID, Rid


def patient_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("age", AttrKind.INT32),
            AttributeDef("sex", AttrKind.CHAR),
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


# ------------------------------------------------------------- model

class TestSchema:
    def test_define_and_lookup(self):
        schema = patient_schema()
        patient = schema.cls("Patient")
        assert patient.attribute("mrn").kind is AttrKind.INT32
        assert schema.by_id(patient.class_id) is patient

    def test_duplicate_class_rejected(self):
        schema = patient_schema()
        with pytest.raises(SchemaError):
            schema.define("Patient", [])

    def test_unknown_class_rejected(self):
        with pytest.raises(SchemaError):
            patient_schema().cls("Nurse")

    def test_unknown_attribute_rejected(self):
        schema = patient_schema()
        with pytest.raises(SchemaError):
            schema.cls("Patient").attribute("salary")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema().define(
                "Bad",
                [
                    AttributeDef("x", AttrKind.INT32),
                    AttributeDef("x", AttrKind.CHAR),
                ],
            )

    def test_scalar_and_set_partition(self):
        provider = patient_schema().cls("Provider")
        assert [a.name for a in provider.scalar_attributes()] == ["name", "upin"]
        assert [a.name for a in provider.set_attributes()] == ["clients"]


# ------------------------------------------------------------- header

class TestObjectHeader:
    def test_new_unindexed_header_has_no_slots(self):
        header = ObjectHeader.for_new_object(3, in_indexed_collection=False)
        assert header.slot_count == 0
        assert header.size == 5
        assert header.flags == FLAG_PERSISTENT

    def test_new_indexed_header_reserves_a_block(self):
        header = ObjectHeader.for_new_object(3, in_indexed_collection=True)
        assert header.slot_count == INDEX_SLOT_BLOCK
        assert header.size == 5 + 2 * INDEX_SLOT_BLOCK
        assert header.flags == FLAG_PERSISTENT | FLAG_INDEXED

    def test_encode_decode_roundtrip(self):
        header = ObjectHeader.for_new_object(7, True)
        header.add_index(42)
        decoded = ObjectHeader.decode(header.encode())
        assert decoded.class_id == 7
        assert decoded.index_ids == [42]
        assert decoded.slot_count == INDEX_SLOT_BLOCK

    def test_add_index_into_free_slot_does_not_grow(self):
        header = ObjectHeader.for_new_object(1, True)
        assert header.add_index(5) is False

    def test_add_index_without_slots_grows(self):
        header = ObjectHeader.for_new_object(1, False)
        assert header.add_index(5) is True
        assert header.slot_count == INDEX_SLOT_BLOCK

    def test_add_ninth_index_grows_again(self):
        header = ObjectHeader.for_new_object(1, True)
        for i in range(1, 9):
            assert header.add_index(i) is False
        assert header.add_index(9) is True
        assert header.slot_count == 2 * INDEX_SLOT_BLOCK

    def test_add_index_idempotent(self):
        header = ObjectHeader.for_new_object(1, True)
        header.add_index(5)
        assert header.add_index(5) is False
        assert header.index_ids == [5]

    def test_peek_helpers(self):
        header = ObjectHeader.for_new_object(9, True)
        encoded = header.encode() + b"payload"
        assert ObjectHeader.peek_class_id(encoded) == 9
        assert ObjectHeader.peek_size(encoded) == header.size
        assert encoded[4] == 0  # reserved: always written 0

    def test_flags_encoding(self):
        header = ObjectHeader(2, FLAG_PERSISTENT | FLAG_INDEXED, 8)
        decoded = ObjectHeader.decode(header.encode())
        assert decoded.flags == FLAG_PERSISTENT | FLAG_INDEXED


# ------------------------------------------------------------- codec

class TestRidCodec:
    def test_roundtrip(self):
        rid = Rid(3, 123456, 17)
        assert decode_rid(encode_rid(rid)) == rid

    def test_nil_roundtrip(self):
        assert decode_rid(encode_rid(NIL_RID)) == NIL_RID

    @given(
        st.integers(min_value=0, max_value=32000),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=32000),
    )
    @settings(max_examples=100)
    def test_property_roundtrip(self, f, p, s):
        rid = Rid(f, p, s)
        assert decode_rid(encode_rid(rid)) == rid


class TestRecordCodec:
    def make(self, cls_name="Patient"):
        schema = patient_schema()
        return schema, RecordCodec(schema.cls(cls_name))

    def test_patient_roundtrip(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        provider_rid = Rid(0, 10, 2)
        record = codec.encode(
            header,
            {
                "name": "Daisy Duck",
                "mrn": 42,
                "age": 61,
                "sex": "F",
                "primary_care_provider": provider_rid,
            },
        )
        decoded = codec.decode(record)
        assert decoded == {
            "name": "Daisy Duck",
            "mrn": 42,
            "age": 61,
            "sex": "F",
            "primary_care_provider": provider_rid,
        }

    def test_decode_single_attr_matches_full_decode(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(
            header, {"name": "Obelix", "mrn": 7, "age": 30, "sex": "M"}
        )
        assert codec.decode_attr(record, "mrn") == 7
        assert codec.decode_attr(record, "name") == "Obelix"
        assert codec.decode_attr(record, "primary_care_provider") is None

    def test_attr_offsets_independent_of_header_size(self):
        schema, codec = self.make()
        slim = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        wide = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        values = {"name": "Tintin", "mrn": 99, "age": 15, "sex": "M"}
        for header in (slim, wide):
            record = codec.encode(header, values)
            assert codec.decode_attr(record, "mrn") == 99

    def test_string_truncated_to_width(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(header, {"name": "A" * 50, "mrn": 1})
        assert codec.decode_attr(record, "name") == "A" * 16

    def test_inline_set_roundtrip(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        clients = InlineSet((Rid(1, 0, 0), Rid(1, 0, 1), Rid(1, 0, 2)))
        record = codec.encode(
            header, {"name": "Asterix", "upin": 2, "clients": clients}
        )
        assert codec.decode_attr(record, "clients") == clients

    def test_overflow_set_roundtrip(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        spilled = OverflowSet(Rid(9, 4, 0), 1000)
        record = codec.encode(header, {"name": "X", "upin": 1, "clients": spilled})
        assert codec.decode_attr(record, "clients") == spilled

    def test_oversized_inline_set_rejected(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        too_many = InlineSet(tuple(Rid(1, 0, i) for i in range(1000)))
        with pytest.raises(SchemaError):
            codec.encode(header, {"name": "X", "upin": 1, "clients": too_many})

    def test_update_scalar_preserves_size_and_neighbours(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        record = codec.encode(header, {"name": "Valentin", "mrn": 5, "age": 20})
        updated = codec.update_scalar(record, "age", 21)
        assert len(updated) == len(record)
        assert codec.decode_attr(updated, "age") == 21
        assert codec.decode_attr(updated, "name") == "Valentin"
        assert codec.decode_attr(updated, "mrn") == 5

    def test_update_set_changes_size(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        record = codec.encode(
            header, {"name": "Asterix", "upin": 2, "clients": InlineSet(())}
        )
        grown = codec.update_set(
            record, "clients", InlineSet((Rid(1, 0, 0), Rid(1, 0, 1)))
        )
        assert len(grown) > len(record)
        assert codec.decode_attr(grown, "clients").count == 2
        assert codec.decode_attr(grown, "name") == "Asterix"

    def test_update_scalar_rejects_set_attr(self):
        schema, codec = self.make("Provider")
        with pytest.raises(SchemaError):
            codec.update_scalar(b"\x00" * 32, "clients", InlineSet(()))

    def test_patient_record_is_about_sixty_bytes(self):
        """Paper, Section 2: patient objects are about 60 bytes."""
        schema = patient_schema()
        full = Schema()
        full.define(
            "Patient",
            [
                AttributeDef("name", AttrKind.STRING),
                AttributeDef("mrn", AttrKind.INT32),
                AttributeDef("age", AttrKind.INT32),
                AttributeDef("sex", AttrKind.CHAR),
                AttributeDef("random_integer", AttrKind.INT32),
                AttributeDef("num", AttrKind.INT32),
                AttributeDef("primary_care_provider", AttrKind.REF),
            ],
        )
        codec = RecordCodec(full.cls("Patient"))
        header = ObjectHeader.for_new_object(1, True)
        record = codec.encode(header, {"name": "n", "mrn": 1})
        assert 50 <= len(record) <= 70

    @given(
        name=st.text(max_size=16).filter(lambda s: "\x00" not in s),
        mrn=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        age=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    @settings(max_examples=100)
    def test_property_scalar_roundtrip(self, name, mrn, age):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(header, {"name": name, "mrn": mrn, "age": age})
        # utf-8 truncation can shorten multi-byte text; only require a prefix
        decoded_name = codec.decode_attr(record, "name")
        assert name.encode("utf-8")[:16].decode("utf-8", "replace").startswith(
            decoded_name[: max(0, len(decoded_name) - 1)]
        ) or decoded_name == name
        assert codec.decode_attr(record, "mrn") == mrn
        assert codec.decode_attr(record, "age") == age


# ------------------------------------------------------------- compiled readers

def every_kind_schema() -> Schema:
    """One attribute of every :class:`AttrKind`, two of the variable
    one (the second set's reader has to walk past the first)."""
    schema = Schema()
    schema.define(
        "Everything",
        [
            AttributeDef("label", AttrKind.STRING, width=5),
            AttributeDef("count", AttrKind.INT32),
            AttributeDef("ratio", AttrKind.REAL64),
            AttributeDef("grade", AttrKind.CHAR),
            AttributeDef("flag", AttrKind.BOOL),
            AttributeDef("owner", AttrKind.REF),
            AttributeDef("nobody", AttrKind.REF),
            AttributeDef("small", AttrKind.REF_SET),
            AttributeDef("large", AttrKind.REF_SET),
        ],
    )
    return schema


EVERYTHING = {
    "label": "héllo"[:4],  # 5 bytes of utf-8: fills the width exactly
    "count": -123456,
    "ratio": 0.1 + 0.2,
    "grade": "B",
    "flag": True,
    "owner": Rid(3, 70000, 12),
    "nobody": None,
    "small": InlineSet((Rid(1, 2, 3), Rid(4, 5, 6), Rid(0, 0, 0))),
    "large": OverflowSet(Rid(9, 8, 7), 1000),
}


class TestCompiledReaders:
    """The per-attribute readers a codec compiles when it is built."""

    def record(self, slot_count: int) -> tuple[RecordCodec, bytes]:
        cls = every_kind_schema().cls("Everything")
        header = ObjectHeader(cls.class_id, slot_count=slot_count)
        header.index_ids = list(range(1, slot_count + 1))
        codec = RecordCodec(cls)
        return codec, codec.encode(header, EVERYTHING)

    def test_there_is_a_reader_per_attribute_in_storage_order(self):
        codec, __ = self.record(0)
        assert {kind for kind in AttrKind} == {
            attr.kind for attr in codec.class_def.attributes
        }
        assert list(codec.readers) == list(EVERYTHING)

    @pytest.mark.parametrize("slot_count", [0, 1, 3])
    def test_reader_reads_what_was_encoded(self, slot_count):
        """Index slots sit between the fixed header and the payload, so
        every slot count shifts every attribute."""
        codec, record = self.record(slot_count)
        assert ObjectHeader.peek_size(record) == 5 + 2 * slot_count
        for name, expected in EVERYTHING.items():
            assert codec.readers[name](record) == expected, name

    @pytest.mark.parametrize("slot_count", [0, 1, 3])
    def test_reader_decode_and_decode_attr_agree(self, slot_count):
        codec, record = self.record(slot_count)
        full = codec.decode(record)
        assert list(full) == list(EVERYTHING)
        for name, read in codec.readers.items():
            assert read(record) == full[name] == codec.decode_attr(record, name)

    def test_payload_sits_where_the_layout_says(self):
        """Independent of the codec: unpack by hand at the documented
        offsets (string 5, int32 4, real64 8, char 1, bool 1, rid 8)."""
        __, record = self.record(3)
        base = 5 + 2 * 3
        assert record[base : base + 5] == "héll".encode("utf-8")
        assert struct.unpack_from("<i", record, base + 5) == (-123456,)
        assert struct.unpack_from("<d", record, base + 9) == (0.1 + 0.2,)
        assert record[base + 17 : base + 19] == b"B\x01"
        assert struct.unpack_from("<hih", record, base + 19) == (3, 70000, 12)
        assert struct.unpack_from("<hih", record, base + 27) == (-1, -1, -1)
        assert struct.unpack_from("<BI", record, base + 35) == (0, 3)

    def test_nil_ref_reads_as_none_and_rids_as_rids(self):
        codec, record = self.record(1)
        assert codec.readers["nobody"](record) is None
        owner = codec.readers["owner"](record)
        assert type(owner) is Rid and owner.page_no == 70000
        small = codec.readers["small"](record)
        assert all(type(rid) is Rid for rid in small.rids)

    def test_short_string_is_stripped_of_padding(self):
        cls = every_kind_schema().cls("Everything")
        codec = RecordCodec(cls)
        record = codec.encode(ObjectHeader(cls.class_id), {"label": "ab"})
        assert codec.readers["label"](record) == "ab"
        assert codec.readers["small"](record) == InlineSet(())

    def test_truncated_inline_set_raises(self):
        codec, record = self.record(0)
        cut = record[: -(12 + 8)]  # drop the overflow set and one inline rid
        with pytest.raises(struct.error):
            codec.readers["small"](cut)

    def test_unknown_attribute_has_no_reader(self):
        codec, record = self.record(0)
        assert "missing" not in codec.readers
        with pytest.raises(SchemaError, match="no attribute 'missing'"):
            codec.decode_attr(record, "missing")


class TestClassDefLookup:
    def test_attribute_lookup(self):
        doctor = Schema().define(
            "Doctor",
            [AttributeDef("name", AttrKind.STRING), AttributeDef("upin", AttrKind.INT32)],
        )
        assert doctor.attribute("name").kind is AttrKind.STRING
        assert doctor.attribute("upin").kind is AttrKind.INT32
        with pytest.raises(SchemaError, match="'Doctor' has no attribute 'age'"):
            doctor.attribute("age")


class TestGetAttr:
    """``get_attr`` resolves a class's attributes once; a name the class
    lacks raises the class's own ``SchemaError`` every time."""

    def make(self) -> tuple[Database, Rid]:
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
        return db, db.create_object("Patient", {"name": "a", "mrn": 1}, "patients")

    def test_unknown_attribute_raises(self):
        db, rid = self.make()
        with pytest.raises(SchemaError, match="'Patient' has no attribute 'nope'"):
            db.manager.get_attr_at(rid, "nope")

    def test_a_miss_is_not_remembered(self):
        db, rid = self.make()
        for __ in range(2):
            with pytest.raises(SchemaError, match="no attribute 'age'"):
                db.manager.get_attr_at(rid, "age")
            assert db.manager.get_attr_at(rid, "mrn") == 1
        (table,) = db.manager._attr_tables.values()
        assert sorted(table) == ["mrn", "name"]

    def test_an_omitted_attribute_reads_its_kinds_zero(self):
        schema = Schema()
        schema.define("Patient", [
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("city", AttrKind.STRING),
        ])
        db = Database(schema)
        db.create_file("patients")
        rid = db.create_object("Patient", {"city": "Paris"}, "patients")
        assert db.manager.get_attr_at(rid, "mrn") == 0
        rid = db.create_object("Patient", {"mrn": 2}, "patients")
        assert db.manager.get_attr_at(rid, "city") == ""
