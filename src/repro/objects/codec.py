"""Binary record codec.

Record layout::

    [object header][scalar attributes, fixed offsets][set attributes]

Scalars (ints, reals, chars, bools, fixed-width strings, refs) live at
offsets precomputed per class, so a query can decode a single attribute
without materializing the whole object: a :class:`RecordCodec` compiles
one ``reader(record)`` per attribute when it is built, with the offset,
width and ``struct`` already bound, and every decode goes through those
readers.  Set attributes come last and are
either *inline* (small sets: the rids follow the count) or *overflow*
(large sets: only a head rid pointing into the large-collection file) —
O2 stores collections beyond a page threshold in a separate file (paper,
Section 2), which is why 1000-patient ``clients`` sets live apart while
3-patient ones sit next to their provider.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.errors import SchemaError
from repro.objects.header import (
    FIXED_SIZE,
    SLOT_BYTES,
    SLOT_COUNT_BYTE,
    ObjectHeader,
)
from repro.objects.model import AttrKind, AttributeDef, ClassDef
from repro.storage.rid import NIL_RID, Rid

#: A set whose rids would exceed this many bytes moves to the
#: large-collection file (O2's threshold is the 4 KB page; records also
#: carry the object's other attributes, hence a bit less).
INLINE_SET_LIMIT_BYTES = 3400

_RID = struct.Struct("<hih")  # file_id, page_no, slot  (8 bytes)
_SET_PREFIX = struct.Struct("<BI")  # tag, count

_SCALAR_STRUCTS = {
    AttrKind.INT32: struct.Struct("<i"),
    AttrKind.REAL64: struct.Struct("<d"),
    AttrKind.BOOL: struct.Struct("<?"),
}


def encode_rid(rid: Rid) -> bytes:
    return _RID.pack(rid.file_id, rid.page_no, rid.slot)


#: ``Rid`` from its three unpacked fields, with no Python-level call:
#: ``Rid(*fields)`` and ``Rid._make`` both run the named tuple's own
#: Python ``__new__`` first.
_rid_of = partial(tuple.__new__, Rid)


def decode_rid(buf: bytes, offset: int = 0) -> Rid:
    return _rid_of(_RID.unpack_from(buf, offset))


@dataclass(frozen=True)
class InlineSet:
    """A small ref-set stored inside its owner's record."""

    rids: tuple[Rid, ...]

    @property
    def count(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class OverflowSet:
    """A large ref-set: only a head pointer into the collection store."""

    head: Rid
    count: int


#: ``record -> value`` of one attribute, compiled per class version.
Reader = Callable[[bytes], object]


def _scalar_reader(attr: AttributeDef, at: int) -> Reader:
    """Reader of the scalar stored ``at`` bytes past the record's index
    slots (only the record knows how many it has)."""
    kind = attr.kind
    if kind is AttrKind.STRING:
        width = attr.width

        def read(record: bytes) -> object:
            start = at + SLOT_BYTES * record[SLOT_COUNT_BYTE]
            raw = record[start : start + width]
            return raw.rstrip(b"\x00").decode("utf-8", errors="replace")

    elif kind is AttrKind.CHAR:

        def read(record: bytes) -> object:
            start = at + SLOT_BYTES * record[SLOT_COUNT_BYTE]
            return record[start : start + 1].decode("latin-1")

    elif kind is AttrKind.REF:
        unpack = _RID.unpack_from

        def read(record: bytes) -> object:
            fields = unpack(record, at + SLOT_BYTES * record[SLOT_COUNT_BYTE])
            return None if fields == NIL_RID else _rid_of(fields)

    else:
        unpack = _SCALAR_STRUCTS[kind].unpack_from

        def read(record: bytes) -> object:
            return unpack(record, at + SLOT_BYTES * record[SLOT_COUNT_BYTE])[0]

    return read


def _set_reader(position: int, at: int) -> Reader:
    """Reader of the ``position``-th set attribute; the sets start
    ``at`` bytes past the index slots and are variable-size, so the
    ones before it are walked."""

    def read(record: bytes) -> object:
        offset = at + SLOT_BYTES * record[SLOT_COUNT_BYTE]
        for __ in range(position):
            offset = _decode_set(record, offset)[1]
        return _decode_set(record, offset)[0]

    return read


def _decode_set(record: bytes, offset: int) -> tuple[InlineSet | OverflowSet, int]:
    """The set at ``offset`` and the offset just past it."""
    tag, count = _SET_PREFIX.unpack_from(record, offset)
    offset += _SET_PREFIX.size
    if tag == 1:
        return OverflowSet(decode_rid(record, offset), count), offset + _RID.size
    end = offset + count * _RID.size
    if end > len(record):  # a slice would silently stop short
        raise struct.error(f"inline set of {count} rids overruns its record")
    rids = tuple(map(_rid_of, _RID.iter_unpack(record[offset:end])))
    return InlineSet(rids), end


class RecordCodec:
    """Encodes/decodes instances of one class version."""

    def __init__(self, class_def: ClassDef):
        self.class_def = class_def
        self._scalar_attrs = class_def.scalar_attributes()
        self._set_attrs = class_def.set_attributes()
        self._offsets: dict[str, int] = {}
        #: Attribute name -> compiled reader, in storage order (scalars,
        #: then sets).  The one decoding path: :meth:`decode`,
        #: :meth:`decode_attr` and ``ObjectManager.get_attr`` all call
        #: these.
        self.readers: dict[str, Reader] = {}
        offset = 0
        for attr in self._scalar_attrs:
            self._offsets[attr.name] = offset
            self.readers[attr.name] = _scalar_reader(attr, FIXED_SIZE + offset)
            offset += attr.fixed_size  # type: ignore[operator]
        self.scalar_size = offset
        for position, attr in enumerate(self._set_attrs):
            self.readers[attr.name] = _set_reader(position, FIXED_SIZE + offset)

    # -- encoding -----------------------------------------------------------

    def encode(self, header: ObjectHeader, values: dict[str, object]) -> bytes:
        """Serialize ``values`` (attribute name -> python value) behind
        ``header``.  Set attributes accept an :class:`InlineSet`, an
        :class:`OverflowSet`, or a plain sequence of rids (encoded
        inline; the caller must have checked the inline limit)."""
        parts = [header.encode()]
        for attr in self._scalar_attrs:
            parts.append(
                self._encode_scalar(attr, values.get(attr.name, attr.default))
            )
        for attr in self._set_attrs:
            parts.append(self._encode_set(attr, values.get(attr.name)))
        return b"".join(parts)

    def _encode_scalar(self, attr: AttributeDef, value: object) -> bytes:
        kind = attr.kind
        if kind is AttrKind.STRING:
            raw = str(value or "").encode("utf-8")[: attr.width]
            return raw.ljust(attr.width, b"\x00")
        if kind is AttrKind.CHAR:
            text = str(value or "\x00")
            return text.encode("latin-1")[:1] or b"\x00"
        if kind is AttrKind.REF:
            return encode_rid(value if isinstance(value, Rid) else NIL_RID)
        s = _SCALAR_STRUCTS.get(kind)
        if s is None:
            raise SchemaError(f"cannot encode attribute kind {kind}")
        if kind is AttrKind.INT32:
            return s.pack(int(value or 0))
        if kind is AttrKind.REAL64:
            return s.pack(float(value or 0.0))
        return s.pack(bool(value))

    def _encode_set(self, attr: AttributeDef, value: object) -> bytes:
        if value is None:
            value = InlineSet(())
        if isinstance(value, OverflowSet):
            return _SET_PREFIX.pack(1, value.count) + encode_rid(value.head)
        rids = value.rids if isinstance(value, InlineSet) else tuple(value)
        body = b"".join(encode_rid(r) for r in rids)
        if len(body) > INLINE_SET_LIMIT_BYTES:
            raise SchemaError(
                f"set attribute {attr.name!r} with {len(rids)} elements "
                "exceeds the inline limit; store it through the database, "
                "which spills large sets to the collection file"
            )
        return _SET_PREFIX.pack(0, len(rids)) + body

    # -- decoding -------------------------------------------------------------

    def decode_attr(self, record: bytes, name: str) -> object:
        """Decode a single attribute without touching the others."""
        self.class_def.attribute(name)  # SchemaError for an unknown name
        return self.readers[name](record)

    def decode(self, record: bytes) -> dict[str, object]:
        """Decode every attribute."""
        return {name: read(record) for name, read in self.readers.items()}

    def update_scalar(self, record: bytes, name: str, value: object) -> bytes:
        """Return a copy of ``record`` with one scalar attribute replaced
        (same size, so the record never moves for scalar updates)."""
        attr = self.class_def.attribute(name)
        if attr.is_variable:
            raise SchemaError(f"{name!r} is a set attribute; use update_set")
        offset = ObjectHeader.peek_size(record) + self._offsets[name]
        encoded = self._encode_scalar(attr, value)
        return record[:offset] + encoded + record[offset + len(encoded):]

    def update_set(self, record: bytes, name: str, value: object) -> bytes:
        """Return a copy of ``record`` with one set attribute replaced
        (the record may change size and therefore move on disk)."""
        base = ObjectHeader.peek_size(record)
        offset = base + self.scalar_size
        for attr in self._set_attrs:
            start = offset
            __, offset = _decode_set(record, offset)
            if attr.name == name:
                encoded = self._encode_set(attr, value)
                return record[:start] + encoded + record[offset:]
        raise SchemaError(f"class {self.class_def.name!r} has no set {name!r}")
