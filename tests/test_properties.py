"""Cross-module property-based tests (hypothesis)."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferCache, ClientServerSystem
from repro.derby.lrand48 import Lrand48
from repro.exec.sorter import sort_charged
from repro.index.btree import BTreeIndex
from repro.objects import AttributeDef, AttrKind, Database, Schema
from repro.objects.codec import (
    InlineSet,
    OverflowSet,
    RecordCodec,
    _decode_set,
    _encode_set,
    _set_end,
    decode_rid,
)
from repro.objects.database import CHUNK_RIDS, _decode_chunk, _encode_chunk
from repro.objects.header import ObjectHeader
from repro.simtime import Bucket, CostParams, MemoryModel, SimClock
from repro.storage import DiskManager, Rid, StorageFile
from repro.storage.rid import NIL_RID
from repro.units import PAGE_SIZE

from .direct_pager import DirectPager


# ------------------------------------------------------------- buffer

class TestBufferModel:
    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=19), min_size=1, max_size=300
        ),
        cache_pages=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=50, deadline=None)
    def test_lru_matches_reference_model(self, accesses, cache_pages):
        """The two-tier system with an over-sized server cache must show
        exactly the client-LRU miss sequence of a textbook model."""
        disk = DiskManager()
        fid = disk.create_file()
        for __ in range(20):
            disk.allocate_page(fid)
        memory = MemoryModel(
            ram_bytes=1000 * PAGE_SIZE,
            server_cache_bytes=40 * PAGE_SIZE,   # big: absorbs everything
            client_cache_bytes=cache_pages * PAGE_SIZE,
            system_reserved_bytes=0,
        )
        system = ClientServerSystem(disk, memory)

        # Reference LRU model.
        reference_misses = 0
        lru: list[int] = []
        for page_no in accesses:
            if page_no in lru:
                lru.remove(page_no)
            else:
                reference_misses += 1
                if len(lru) >= cache_pages:
                    lru.pop(0)
            lru.append(page_no)

        for page_no in accesses:
            system.get_page(fid, page_no)
        assert disk.counters.client_faults == reference_misses

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200)
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_never_exceeds_capacity(self, accesses):
        cache = BufferCache(7)
        from repro.storage.page import Page

        pages = {no: Page(0, no) for no in set(accesses)}
        written: list[Page] = []
        for no in accesses:
            cache.insert(pages[no], written.append)
            assert len(cache._pages) <= 7
        assert written == []  # every page clean: nothing to write back


# ------------------------------------------------------------- codec

_VALUE_STRATEGY = st.fixed_dictionaries(
    {
        "name": st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=16,
        ),
        "mrn": st.integers(min_value=-(2**31), max_value=2**31 - 1),
        "score": st.floats(allow_nan=False, allow_infinity=False, width=32),
        "flag": st.booleans(),
        "friends": st.lists(
            st.builds(
                Rid,
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=20,
        ),
    }
)


class TestCodecProperties:
    def make_codec(self):
        schema = Schema()
        cls = schema.define(
            "Fuzz",
            [
                AttributeDef("name", AttrKind.STRING),
                AttributeDef("mrn", AttrKind.INT32),
                AttributeDef("score", AttrKind.REAL64),
                AttributeDef("flag", AttrKind.BOOL),
                AttributeDef("friends", AttrKind.REF_SET),
            ],
        )
        return RecordCodec(cls), cls

    @given(values=_VALUE_STRATEGY, indexed=st.booleans())
    @settings(max_examples=100)
    def test_roundtrip(self, values, indexed):
        codec, cls = self.make_codec()
        header = ObjectHeader.for_new_object(cls.class_id, indexed)
        encoded = dict(values, friends=InlineSet(tuple(values["friends"])))
        record = codec.encode(header, encoded)
        decoded = codec.decode(record)
        assert decoded["mrn"] == values["mrn"]
        assert decoded["flag"] == values["flag"]
        assert decoded["score"] == pytest.approx(values["score"], rel=1e-6)
        assert decoded["friends"].rids == tuple(values["friends"])
        assert decoded["name"] == values["name"].encode("utf-8")[:16].rstrip(
            b"\x00"
        ).decode("utf-8", "replace")

    @given(values=_VALUE_STRATEGY)
    @settings(max_examples=50)
    def test_single_attr_equals_full_decode(self, values):
        codec, cls = self.make_codec()
        header = ObjectHeader.for_new_object(cls.class_id, True)
        encoded = dict(values, friends=InlineSet(tuple(values["friends"])))
        record = codec.encode(header, encoded)
        full = codec.decode(record)
        for attr in ("name", "mrn", "score", "flag", "friends"):
            assert codec.decode_attr(record, attr) == full[attr]

    @given(values=_VALUE_STRATEGY, slot_count=st.sampled_from([0, 1, 3]))
    @settings(max_examples=100)
    def test_compiled_readers_equal_full_decode(self, values, slot_count):
        """Whatever the values and however many index slots push the
        payload along, each attribute's compiled reader, ``decode_attr``
        and the full ``decode`` return the same thing -- and it is what
        was encoded."""
        codec, cls = self.make_codec()
        header = ObjectHeader(cls.class_id, slot_count=slot_count)
        friends = InlineSet(tuple(values["friends"]))
        record = codec.encode(header, dict(values, friends=friends))
        full = codec.decode(record)
        assert list(codec.readers) == list(full)
        for name, read in codec.readers.items():
            assert read(record) == full[name] == codec.decode_attr(record, name)
        assert (full["mrn"], full["flag"], full["friends"]) == (
            values["mrn"], values["flag"], friends,
        )


_RID_STRATEGY = st.builds(
    Rid,
    st.integers(min_value=-1, max_value=2**15 - 1),
    st.integers(min_value=-1, max_value=2**31 - 1),
    st.integers(min_value=-1, max_value=2**15 - 1),
)
_SET_STRATEGY = st.one_of(
    st.builds(InlineSet, st.lists(_RID_STRATEGY, max_size=12).map(tuple)),
    st.builds(OverflowSet, _RID_STRATEGY, st.integers(0, 2**32 - 1)),
)


class TestSetExtentProperties:
    """``_set_end`` finds where a set ends from its prefix alone; it is
    the bounds of ``_decode_set`` and how ``update_set`` and the set
    readers walk past the sets they do not want."""

    @given(sets=st.lists(_SET_STRATEGY, min_size=1, max_size=4),
           lead=st.binary(max_size=9), tail=st.binary(max_size=9))
    @settings(max_examples=100)
    def test_end_is_where_the_decoder_stops_and_the_next_set_starts(
        self, sets, lead, tail
    ):
        encoded = [_encode_set("s", value) for value in sets]
        record = lead + b"".join(encoded) + tail
        offset = len(lead)
        for value, raw in zip(sets, encoded):
            end = _set_end(record, offset)
            assert end == offset + len(raw)
            assert _decode_set(record, offset) == (value, end)
            offset = end
        assert record[offset:] == tail

    @given(rids=st.lists(_RID_STRATEGY, min_size=1, max_size=12),
           cut=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_an_inline_set_that_overruns_its_record_is_an_error(self, rids, cut):
        record = _encode_set("s", InlineSet(tuple(rids)))
        for walk in (_set_end, _decode_set):
            with pytest.raises(struct.error, match="overruns its record"):
                walk(record[:-cut], 0)

    @given(first=_SET_STRATEGY, second=_SET_STRATEGY, new=_SET_STRATEGY,
           which=st.sampled_from(["a", "b"]))
    @settings(max_examples=100)
    def test_update_set_replaces_one_set_and_only_that(
        self, first, second, new, which
    ):
        schema = Schema()
        cls = schema.define("Two", [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("a", AttrKind.REF_SET),
            AttributeDef("b", AttrKind.REF_SET),
        ])
        codec = RecordCodec(cls)
        values = {"x": 7, "a": first, "b": second}
        record = codec.encode(ObjectHeader(cls.class_id, slot_count=1), values)
        updated = codec.update_set(record, which, new)
        assert codec.decode(updated) == {**values, which: new}
        assert updated == codec.encode(
            ObjectHeader(cls.class_id, slot_count=1), {**values, which: new}
        )


# ------------------------------------------------------------- writer

_RID = struct.Struct("<hih")
_SET_PREFIX = struct.Struct("<BI")
_PACK = {AttrKind.INT32: "<i", AttrKind.REAL64: "<d", AttrKind.BOOL: "<?"}


def _reference_scalar(attr: AttributeDef, value: object) -> bytes:
    """The per-attribute encoder the compiled writer replaced, kept here
    as the reference: slice + ``ljust`` for strings, one ``pack`` per
    attribute."""
    kind = attr.kind
    if kind is AttrKind.STRING:
        raw = str(value or "").encode("utf-8")[: attr.width]
        return raw.ljust(attr.width, b"\x00")
    if kind is AttrKind.CHAR:
        text = str(value or "\x00")
        return text.encode("latin-1")[:1] or b"\x00"
    if kind is AttrKind.REF:
        rid = value if isinstance(value, Rid) else NIL_RID
        return _RID.pack(rid.file_id, rid.page_no, rid.slot)
    if kind is AttrKind.INT32:
        return struct.pack(_PACK[kind], int(value or 0))
    if kind is AttrKind.REAL64:
        return struct.pack(_PACK[kind], float(value or 0.0))
    return struct.pack(_PACK[kind], bool(value))


def _reference_set(value: object) -> bytes:
    if value is None:
        value = InlineSet(())
    if isinstance(value, OverflowSet):
        head = value.head
        return _SET_PREFIX.pack(1, value.count) + _RID.pack(
            head.file_id, head.page_no, head.slot
        )
    rids = value.rids if isinstance(value, InlineSet) else tuple(value)
    body = b"".join(_RID.pack(r.file_id, r.page_no, r.slot) for r in rids)
    return _SET_PREFIX.pack(0, len(rids)) + body


def reference_encode(class_def, header: ObjectHeader, values: dict) -> bytes:
    parts = [header.encode()]
    for attr in class_def.scalar_attributes():
        parts.append(_reference_scalar(attr, values.get(attr.name)))
    for attr in class_def.set_attributes():
        parts.append(_reference_set(values.get(attr.name)))
    return b"".join(parts)


#: Kind -> (struct code, coercer) of the encoder the compiled writer
#: replaced: one coercer call per attribute.
_MERGE_CODERS = {
    AttrKind.INT32: ("i", lambda v: int(v or 0)),
    AttrKind.REAL64: ("d", lambda v: float(v or 0.0)),
    AttrKind.BOOL: ("?", bool),
    AttrKind.CHAR: ("1s", lambda v: str(v or "\x00").encode("latin-1")),
    AttrKind.STRING: ("{width}s", lambda v: str(v or "").encode("utf-8")),
    AttrKind.REF: (
        "8s", lambda v: _RID.pack(*(v if isinstance(v, Rid) else NIL_RID))
    ),
}


def format_string_header(header: ObjectHeader) -> bytes:
    """The header encoder that built a format string per call."""
    free = header.slot_count - len(header.index_ids)
    return struct.pack(
        f"<BHBB{header.slot_count}H", header.flags, header.class_id,
        header.slot_count, 0, *header.index_ids, *[0] * free,
    )


def format_string_decode(record: bytes) -> tuple:
    """``(flags, class_id, slot_count, index_ids, reserved byte)`` as
    the per-call format-string decoder read them."""
    flags, class_id, slot_count, reserved = struct.unpack_from("<BHBB", record)
    raw = struct.unpack_from(f"<{slot_count}H", record, 5)
    return flags, class_id, slot_count, [i for i in raw if i != 0], reserved


def merge_and_coerce_encode(class_def, header: ObjectHeader, values: dict) -> bytes:
    """The record encoder the compiled writer replaced, kept as the
    reference: ``values`` over ``None`` for every scalar, one coercer
    per scalar, the block in one ``pack``, then the sets."""
    scalars = class_def.scalar_attributes()
    given = {**{a.name: None for a in scalars}, **values}
    codes, packed = [], []
    for attr in scalars:
        code, coerce = _MERGE_CODERS[attr.kind]
        codes.append(code.format(width=attr.width))
        packed.append(coerce(given[attr.name]))
    body = struct.pack("<" + "".join(codes), *packed)
    for attr in class_def.set_attributes():
        body += _reference_set(values.get(attr.name))
    return format_string_header(header) + body


def _writer_schema() -> tuple[Schema, list]:
    """Two layouts: a class with every kind and two sets, and ``Everything``, the same with three scalars appended;
    returns the schema and both classes."""
    schema = Schema()
    base = [
        AttributeDef("name", AttrKind.STRING),
        AttributeDef("tag", AttrKind.STRING, width=5),
        AttributeDef("mrn", AttrKind.INT32),
        AttributeDef("score", AttrKind.REAL64),
        AttributeDef("flag", AttrKind.BOOL),
        AttributeDef("sex", AttrKind.CHAR),
        AttributeDef("boss", AttrKind.REF),
        AttributeDef("friends", AttrKind.REF_SET),
        AttributeDef("foes", AttrKind.REF_SET),
    ]
    narrow = schema.define("Narrow", base)
    wide = schema.define("Everything", base + [
        AttributeDef("ward", AttrKind.STRING, width=8),
        AttributeDef("beds", AttrKind.INT32),
        AttributeDef("peer", AttrKind.REF),
    ])
    return schema, [narrow, wide]


_RIDS = st.builds(
    Rid,
    st.integers(min_value=-1, max_value=300),
    st.integers(min_value=-1, max_value=2**31 - 1),
    st.integers(min_value=-1, max_value=300),
)
_INT32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_LATIN1 = st.characters(max_codepoint=255)
#: Non-ASCII text whose UTF-8 a 5-, 8- or 16-byte field cuts mid-codepoint.
_NON_ASCII = st.text(
    st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
    min_size=2, max_size=20,
)
_STRINGS = st.one_of(
    st.none(), st.text(max_size=40), _NON_ASCII, st.integers(),
    st.just("\x00 inner nul"),
)
_INTS = st.one_of(
    st.none(), _INT32, st.booleans(), st.floats(-1e9, 1e9), st.just("12")
)
_REALS = st.one_of(
    st.none(), st.floats(allow_nan=False), _INT32, st.booleans(), st.just("2.5")
)
_BOOLS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=2))
_CHARS = st.one_of(
    st.none(), st.just(""), st.text(_LATIN1, max_size=3), st.integers(0, 9)
)
_REFS = st.one_of(
    st.none(), _RIDS, st.just(NIL_RID), st.just((1, 2, 3)), st.integers()
)
_SETS = st.one_of(
    st.none(),
    st.lists(_RIDS, max_size=30),
    st.lists(_RIDS, max_size=30).map(tuple),
    st.lists(_RIDS, max_size=30).map(lambda r: InlineSet(tuple(r))),
    st.builds(OverflowSet, _RIDS, st.integers(0, 2**32 - 1)),
)

_SCALARS = {
    "name": _STRINGS, "tag": _STRINGS, "mrn": _INTS, "score": _REALS,
    "flag": _BOOLS, "sex": _CHARS, "boss": _REFS,
    "ward": _STRINGS, "beds": _INTS, "peer": _REFS,  # the evolved version's
}
#: Values as callers may hand them over: any key may be missing or None.
_LOOSE_VALUES = st.fixed_dictionaries({}, optional={
    **_SCALARS, "friends": _SETS, "foes": _SETS,
    "not_an_attribute": st.integers(),
})

_ASCII = st.characters(min_codepoint=33, max_codepoint=126)
#: Values the format represents exactly (``decode(encode(v)) == v``).
_EXACT_VALUES = st.fixed_dictionaries({
    "name": st.text(_ASCII, max_size=16),
    "tag": st.text(_ASCII, max_size=5),
    "mrn": _INT32,
    "score": st.floats(allow_nan=False),
    "flag": st.booleans(),
    "sex": st.text(_LATIN1, min_size=1, max_size=1),
    "boss": st.one_of(st.none(), _RIDS.filter(lambda r: r != NIL_RID)),
    "friends": st.lists(_RIDS, max_size=30).map(lambda r: InlineSet(tuple(r))),
    "foes": st.builds(OverflowSet, _RIDS, st.integers(0, 2**32 - 1)),
})

_HEADERS = st.builds(
    lambda slots, ids, flags: (slots, ids[:slots], flags),
    st.sampled_from([0, 8, 16]),
    st.lists(st.integers(1, 0xFFFF), max_size=16, unique=True),
    st.integers(0, 15),
)


class TestWriterProperties:
    """The compiled record writer against the two encoders before it,
    kept above as references -- per attribute, then merge-and-coerce:
    byte for byte."""

    @given(values=_LOOSE_VALUES, layout=st.sampled_from([0, 1]), head=_HEADERS)
    @settings(max_examples=300, deadline=None)
    def test_writer_equals_reference_encoder(self, values, layout, head):
        __, layouts = _writer_schema()
        class_def = layouts[layout]
        slots, index_ids, flags = head
        header = ObjectHeader(class_def.class_id, flags, slots)
        header.index_ids = index_ids
        assert RecordCodec(class_def).encode(header, values) == reference_encode(
            class_def, header, values
        ) == merge_and_coerce_encode(class_def, header, values)

    @given(
        values=_LOOSE_VALUES,
        name=st.sampled_from(sorted(_SCALARS)),
        slots=st.sampled_from([0, 8]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_update_scalar_equals_re_encoding(self, values, name, slots, data):
        __, (___, class_def) = _writer_schema()
        new_value = data.draw(_SCALARS[name])
        header = ObjectHeader(class_def.class_id, slot_count=slots)
        codec = RecordCodec(class_def)
        updated = codec.update_scalar(codec.encode(header, values), name, new_value)
        assert updated == reference_encode(
            class_def, header, {**values, name: new_value}
        ) == merge_and_coerce_encode(class_def, header, {**values, name: new_value})

    @given(values=_EXACT_VALUES, slots=st.sampled_from([0, 8]))
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode(self, values, slots):
        __, (class_def, ___) = _writer_schema()
        header = ObjectHeader(class_def.class_id, slot_count=slots)
        codec = RecordCodec(class_def)
        assert codec.decode(codec.encode(header, values)) == values

    @given(
        values=_LOOSE_VALUES,
        index_ids=st.lists(st.integers(1, 0xFFFF), max_size=10, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_created_record_equals_reference(self, values, index_ids):
        """``Database.create_object`` takes its header bytes from the
        prefix cache; the record on the page is still what building the
        ``ObjectHeader`` and encoding attribute by attribute gives --
        on the first create (cache miss) and on the second (hit)."""
        schema, (___, class_def) = _writer_schema()
        db = Database(schema)
        sfile = db.create_file("f")
        header = ObjectHeader.for_new_object(class_def.class_id, bool(index_ids))
        for index_id in index_ids:
            header.add_index(index_id)
        prepared = {
            **values,
            "friends": db.prepare_set(values.get("friends")),
            "foes": db.prepare_set(values.get("foes")),
        }
        expected = reference_encode(class_def, header, prepared)
        for __ in range(2):
            rid = db.create_object("Everything", values, "f", tuple(index_ids))
            assert sfile.read(rid) == expected

    def test_one_layout_shares_one_writer(self):
        schema = Schema()
        first, second = (
            schema.define(name, [
                AttributeDef("n", AttrKind.INT32),
                AttributeDef("s", AttrKind.STRING, width=4),
            ])
            for name in ("A", "B")
        )
        a, b = RecordCodec(first), RecordCodec(second)
        assert a.encode_body is b.encode_body
        assert a.writer_source == b.writer_source
        assert "pack(" in a.writer_source
        # An omitted attribute packs its kind's zero.
        assert a.encode_body({}) == struct.pack("<i4s", 0, b"")
        assert a.encode_body({"n": 2, "s": "ab"}) == struct.pack("<i4s", 2, b"ab")


_SLOT_IDS = st.lists(st.integers(1, 0xFFFF), max_size=255)


class TestHeaderProperties:
    """``ObjectHeader`` packs and unpacks through one struct per slot
    count; the per-call format string it replaced is the reference."""

    @given(
        slot_count=st.integers(0, 255), ids=_SLOT_IDS, flags=st.integers(0, 0xFF),
        class_id=st.integers(0, 0xFFFF),
    )
    @settings(max_examples=300, deadline=None)
    def test_header_matches_the_format_string_reference(
        self, slot_count, ids, flags, class_id
    ):
        """... and byte 4, reserved, is always written 0."""
        header = ObjectHeader(class_id, flags, slot_count)
        header.index_ids = ids[:slot_count]
        encoded = header.encode()
        assert encoded == format_string_header(header)
        assert len(encoded) == header.size
        decoded = ObjectHeader.decode(encoded + b"tail")
        assert (
            decoded.flags, decoded.class_id, decoded.slot_count,
            decoded.index_ids, 0,
        ) == format_string_decode(encoded) == (
            flags, class_id, slot_count, ids[:slot_count], 0,
        )
        assert decoded.encode() == encoded

    def test_every_slot_count_round_trips(self):
        for slot_count in range(256):
            for used in {0, slot_count // 2, slot_count}:
                ids = list(range(1, used + 1))
                header = ObjectHeader(9, 3, slot_count)
                header.index_ids = ids
                encoded = header.encode()
                assert encoded == format_string_header(header)
                assert format_string_decode(encoded)[3] == ids
                assert ObjectHeader.decode(encoded).index_ids == ids


_LEAF_RIDS = st.builds(
    Rid, st.integers(0, 300), st.integers(0, 2**31 - 1), st.integers(0, 300)
)


class TestLeafProperties:
    @staticmethod
    def make_index() -> BTreeIndex:
        disk = DiskManager()
        return BTreeIndex("i", 1, StorageFile(disk, DirectPager(disk)))

    @given(st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), _LEAF_RIDS), max_size=250
    ))
    @settings(max_examples=100, deadline=None)
    def test_int_leaf_roundtrip_and_layout(self, entries):
        index = self.make_index()
        leaf = index._encode_leaf(entries)
        # count, then per entry the key and the rid, back to back
        assert leaf == struct.pack("<I", len(entries)) + b"".join(
            struct.pack("<q", key) + _RID.pack(*rid) for key, rid in entries
        )
        assert index._decode_leaf(leaf) == entries
        assert all(type(rid) is Rid for __, rid in index._decode_leaf(leaf))

    def test_truncated_leaf_is_an_error(self):
        index = self.make_index()
        leaf = index._encode_leaf([(1, Rid(0, 0, 0)), (2, Rid(0, 0, 1))])
        with pytest.raises(struct.error):
            index._decode_leaf(leaf[:-1])


# ------------------------------------------------------------- collections

class TestCollectionProperties:
    @given(n=st.integers(min_value=0, max_value=1300))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    def test_roundtrip_across_chunk_boundaries(self, n):
        schema = Schema()
        schema.define("T", [AttributeDef("x", AttrKind.INT32)])
        db = Database(schema)
        db.create_file("t")
        coll = db.new_collection()
        rids = [db.create_object("T", {"x": i}, "t") for i in range(n)]
        for rid in rids:
            coll.append(rid)
        assert list(coll.iter_rids()) == rids
        assert len(coll) == n

    @staticmethod
    def reference_decode_chunk(record: bytes) -> tuple[list[Rid], Rid]:
        """One ``decode_rid`` per rid: the decoder this file replaced."""
        (count,) = struct.unpack_from("<I", record, 0)
        return (
            [decode_rid(record, 12 + 8 * i) for i in range(count)],
            decode_rid(record, 4),
        )

    @given(
        rids=st.one_of(
            st.lists(_RID_STRATEGY, max_size=5),
            st.lists(_RID_STRATEGY, min_size=CHUNK_RIDS, max_size=CHUNK_RIDS),
        ),
        next_rid=st.one_of(st.just(NIL_RID), _RID_STRATEGY),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_roundtrip_matches_the_per_rid_reference(self, rids, next_rid):
        record = _encode_chunk(rids, next_rid)
        assert len(record) == 12 + 8 * len(rids)
        decoded = _decode_chunk(record)
        assert decoded == (rids, next_rid) == self.reference_decode_chunk(record)
        assert all(type(rid) is Rid for rid in decoded[0])

    @pytest.mark.parametrize("n", [0, 1, CHUNK_RIDS])
    @pytest.mark.parametrize("next_rid", [NIL_RID, Rid(3, 70_000, 12)])
    def test_chunk_roundtrip_at_the_boundaries(self, n, next_rid):
        rids = [Rid(1, 40_000 + i, i % 90) for i in range(n)]
        record = _encode_chunk(rids, next_rid)
        assert _decode_chunk(record) == (rids, next_rid)
        assert _decode_chunk(record) == self.reference_decode_chunk(record)

    def test_truncated_chunk_is_an_error(self):
        record = _encode_chunk([Rid(0, 1, 2), Rid(0, 1, 3)], NIL_RID)
        with pytest.raises(struct.error, match="overruns its record"):
            _decode_chunk(record[:-1])

    def test_iter_rids_and_iter_set_rids_share_the_chunk_decoder(self, monkeypatch):
        from repro.objects import database

        seen = []
        real = database._decode_chunk
        monkeypatch.setattr(
            database, "_decode_chunk",
            lambda record: seen.append(len(record)) or real(record),
        )
        schema = Schema()
        schema.define("T", [AttributeDef("x", AttrKind.INT32)])
        db = Database(schema)
        db.create_file("t")
        rids = [db.create_object("T", {"x": i}, "t") for i in range(CHUNK_RIDS + 3)]
        coll = db.new_collection()
        for rid in rids:
            coll.append(rid)
        assert list(coll.iter_rids()) == rids
        assert list(db.iter_set_rids(db.spill_set(rids))) == rids
        assert seen == [12 + 8 * CHUNK_RIDS, 12 + 8 * 3] * 2


# ------------------------------------------------------------- clock / sort

class TestClockProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Bucket)),
                st.floats(min_value=0, max_value=1e6),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_elapsed_is_sum_of_buckets(self, charges):
        clock = SimClock()
        for bucket, us in charges:
            clock.charge_us(bucket, us)
        assert clock.elapsed_s == pytest.approx(
            sum(clock.breakdown().values())
        )
        assert clock.elapsed_s >= 0

    def test_negative_charge_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.charge_ms(Bucket.IO, -1)

    @given(st.lists(st.integers(), max_size=200))
    @settings(max_examples=50)
    def test_sort_charged_sorts_and_charges(self, items):
        clock = SimClock()
        result = sort_charged(list(items), clock, CostParams())
        assert result == sorted(items)
        if len(items) > 1:
            assert clock.buckets.get(Bucket.SORT, 0.0) > 0


# ------------------------------------------------------------- lrand48

class TestLrand48Properties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_matches_direct_lcg(self, seed):
        rng = Lrand48(seed)
        x = (((seed & 0xFFFFFFFF) << 16) | 0x330E) & ((1 << 48) - 1)
        for __ in range(5):
            x = (0x5DEECE66D * x + 0xB) & ((1 << 48) - 1)
            assert rng.lrand48() == x >> 17


# ------------------------------------------------------------- joins

class TestJoinEquivalenceProperty:
    @given(
        n_providers=st.integers(min_value=2, max_value=12),
        n_patients=st.integers(min_value=4, max_value=120),
        sel_pat=st.integers(min_value=1, max_value=100),
        sel_prov=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=12, deadline=None)
    def test_all_algorithms_agree(
        self, n_providers, n_patients, sel_pat, sel_prov, seed
    ):
        """On arbitrary tiny databases, all six algorithms return the
        same multiset of rows."""
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.derby.config import Clustering
        from repro.exec import Cursor, PipelineContext, TreeJoinQuery
        from repro.exec.operators import JOIN_OPERATORS

        clustering = random.Random(seed).choice(list(Clustering))
        config = DerbyConfig(
            n_providers=n_providers,
            n_patients=n_patients,
            clustering=clustering,
            seed=seed,
            scale=0.001,
            params=CostParams().scaled(0.001),
        )
        derby = load_derby(config)
        query = TreeJoinQuery(
            db=derby.db,
            parent_index=derby.by_upin,
            child_index=derby.by_mrn,
            parent_high=config.upin_threshold(sel_prov),
            child_high=config.mrn_threshold(sel_pat),
        )
        results = {}
        for name, operator_class in JOIN_OPERATORS.items():
            derby.start_cold_run()
            op = operator_class(PipelineContext(derby.db), query)
            with Cursor(op.ctx, op) as cursor:
                results[name] = sorted(cursor.drain())
        baseline = results.pop("PHJ")
        for name, rows in results.items():
            assert rows == baseline, f"{name} disagrees with PHJ"
