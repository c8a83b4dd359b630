"""Binary record codec.

Record layout::

    [object header][scalar attributes, fixed offsets][set attributes]

Scalars (ints, reals, chars, bools, fixed-width strings, refs) live at
offsets precomputed per class, so a query can decode a single attribute
without materializing the whole object: a :class:`RecordCodec` compiles
one ``reader(record)`` per attribute when it is built, with the offset,
width and ``struct`` already bound, and every decode goes through those
readers.  Beside them it compiles the writer: one ``struct.Struct`` for
the whole scalar block and one coercer per attribute, so a record body
is a single ``pack`` and every encode goes through those coercers.  Set
attributes come last and are
either *inline* (small sets: the rids follow the count) or *overflow*
(large sets: only a head rid pointing into the large-collection file) —
O2 stores collections beyond a page threshold in a separate file (paper,
Section 2), which is why 1000-patient ``clients`` sets live apart while
3-patient ones sit next to their provider.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

from repro.errors import SchemaError
from repro.objects.header import (
    FIXED_SIZE,
    SLOT_BYTES,
    SLOT_COUNT_BYTE,
    ObjectHeader,
)
from repro.objects.model import AttrKind, AttributeDef, ClassDef
from repro.storage.rid import NIL_RID, Rid, rid_of

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

_RID_FORMAT = _RID.format[1:]  # without the byte-order mark
_NIL_RID_BYTES = _RID.pack(*NIL_RID)


def encode_rid(rid: Rid) -> bytes:
    return _RID.pack(rid.file_id, rid.page_no, rid.slot)


def encode_rids(rids: Sequence[Rid]) -> bytes:
    """The rids back to back, 8 bytes each, in one ``pack``."""
    return struct.pack(
        "<" + _RID_FORMAT * len(rids), *chain.from_iterable(rids)
    )


def decode_rid(buf: bytes, offset: int = 0) -> Rid:
    return rid_of(_RID.unpack_from(buf, offset))


def decode_rids(buf: bytes) -> Iterator[Rid]:
    """The rids packed back to back in ``buf`` (a whole number of them),
    in one pass of the struct: what :func:`encode_rids` wrote.  (An
    inline set decodes the same way, spelled out in ``_decode_set`` to
    spare a set read the call.)"""
    return map(rid_of, _RID.iter_unpack(buf))


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
            return None if fields == NIL_RID else rid_of(fields)

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
            offset = _set_end(record, offset)
        return _decode_set(record, offset)[0]

    return read


def _set_end(record: bytes, offset: int) -> int:
    """The offset just past the set at ``offset``, from its prefix
    alone.  The one place the set layout's extent is written:
    ``[tag, count]`` then one head rid (overflow) or ``count`` rids."""
    tag, count = _SET_PREFIX.unpack_from(record, offset)
    if tag == 1:
        return offset + _SET_PREFIX.size + _RID.size
    end = offset + _SET_PREFIX.size + count * _RID.size
    if end > len(record):  # a slice would silently stop short
        raise struct.error(f"inline set of {count} rids overruns its record")
    return end


def _decode_set(record: bytes, offset: int) -> tuple[InlineSet | OverflowSet, int]:
    """The set at ``offset`` and the offset just past it."""
    end = _set_end(record, offset)
    body = offset + _SET_PREFIX.size
    if record[offset] == 1:  # the tag: overflow
        count = _SET_PREFIX.unpack_from(record, offset)[1]
        return OverflowSet(decode_rid(record, body), count), end
    return InlineSet(tuple(map(rid_of, _RID.iter_unpack(record[body:end])))), end


def _encode_set(name: str, value: object) -> bytes:
    if value is None:
        value = InlineSet(())
    if isinstance(value, OverflowSet):
        return _SET_PREFIX.pack(1, value.count) + encode_rid(value.head)
    rids = value.rids if isinstance(value, InlineSet) else tuple(value)
    if len(rids) * _RID.size > INLINE_SET_LIMIT_BYTES:
        raise SchemaError(
            f"set attribute {name!r} with {len(rids)} elements "
            "exceeds the inline limit; store it through the database, "
            "which spills large sets to the collection file"
        )
    return _SET_PREFIX.pack(0, len(rids)) + encode_rids(rids)


#: ``python value -> what the attribute's struct code packs``.  Each
#: maps ``None`` (an omitted attribute with no declared default) to the
#: kind's zero.
Coercer = Callable[[object], object]


def _to_int(value: object) -> int:
    return int(value or 0)  # type: ignore[call-overload]


def _to_real(value: object) -> float:
    return float(value or 0.0)  # type: ignore[arg-type]


def _to_text(value: object) -> bytes:
    return str(value or "").encode("utf-8")


def _to_char(value: object) -> bytes:
    return str(value or "\x00").encode("latin-1")


def _to_rid_bytes(value: object) -> bytes:
    return _RID.pack(*value) if isinstance(value, Rid) else _NIL_RID_BYTES


#: Scalar kind -> (struct code, coercer).  ``Ns`` cuts an over-long
#: value at ``N`` bytes and NUL-pads a short one, exactly the slice +
#: ``ljust`` a fixed-width field asks for, so STRING is ``{width}s`` and
#: CHAR is ``1s`` (an empty one packs as NUL).
_SCALAR_WRITERS: dict[AttrKind, tuple[str, Coercer]] = {
    AttrKind.INT32: ("i", _to_int),
    AttrKind.REAL64: ("d", _to_real),
    AttrKind.BOOL: ("?", bool),
    AttrKind.CHAR: ("1s", _to_char),
    AttrKind.REF: (f"{_RID.size}s", _to_rid_bytes),
}


def _scalar_writer(attr: AttributeDef) -> tuple[str, Coercer]:
    if attr.kind is AttrKind.STRING:
        return f"{attr.width}s", _to_text
    try:
        return _SCALAR_WRITERS[attr.kind]
    except KeyError:
        raise SchemaError(f"cannot encode attribute kind {attr.kind}") from None


class RecordCodec:
    """Encodes/decodes instances of one class version."""

    def __init__(self, class_def: ClassDef):
        self.class_def = class_def
        scalar_attrs = class_def.scalar_attributes()
        #: Names of the set attributes, in storage order.
        self.set_names = tuple(a.name for a in class_def.set_attributes())
        #: Attribute name -> compiled reader, in storage order (scalars,
        #: then sets).  The one decoding path: :meth:`decode`,
        #: :meth:`decode_attr` and ``ObjectManager.get_attr`` all call
        #: these.
        self.readers: dict[str, Reader] = {}
        #: Scalar name -> (offset in the scalar block, its one-field
        #: struct, coercer), in storage order.  The one encoding path:
        #: :meth:`encode_body` packs the whole block through these
        #: coercers, :meth:`update_scalar` one field.
        self._writers: dict[str, tuple[int, struct.Struct, Coercer]] = {}
        #: What an omitted scalar is encoded from.
        self._defaults = {a.name: a.default for a in scalar_attrs}
        #: (name, coercer) per scalar, in the order the block packs them.
        self._coercers: list[tuple[str, Coercer]] = []
        codes = []
        offset = 0
        for attr in scalar_attrs:
            code, coerce = _scalar_writer(attr)
            codes.append(code)
            field = struct.Struct("<" + code)
            self._writers[attr.name] = (offset, field, coerce)
            self._coercers.append((attr.name, coerce))
            self.readers[attr.name] = _scalar_reader(attr, FIXED_SIZE + offset)
            offset += field.size
        self.scalar_size = offset
        self._scalar_block = struct.Struct("<" + "".join(codes))
        for position, name in enumerate(self.set_names):
            self.readers[name] = _set_reader(position, FIXED_SIZE + offset)

    # -- encoding -----------------------------------------------------------

    def encode(self, header: ObjectHeader, values: dict[str, object]) -> bytes:
        """Serialize ``values`` (attribute name -> python value) behind
        ``header``."""
        return header.encode() + self.encode_body(values)

    def encode_body(self, values: dict[str, object]) -> bytes:
        """Everything after the object header: the scalar block in one
        ``pack``, then the sets.  An omitted scalar takes its declared
        default.  Set attributes accept an :class:`InlineSet`, an
        :class:`OverflowSet`, or a plain sequence of rids (encoded
        inline; the caller must have checked the inline limit)."""
        given = {**self._defaults, **values}
        body = self._scalar_block.pack(
            *[coerce(given[name]) for name, coerce in self._coercers]
        )
        for name in self.set_names:
            body += _encode_set(name, values.get(name))
        return body

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
        at, field, coerce = self._writers[name]
        offset = ObjectHeader.peek_size(record) + at
        return (
            record[:offset] + field.pack(coerce(value))
            + record[offset + field.size:]
        )

    def update_set(self, record: bytes, name: str, value: object) -> bytes:
        """Return a copy of ``record`` with one set attribute replaced
        (the record may change size and therefore move on disk)."""
        base = ObjectHeader.peek_size(record)
        offset = base + self.scalar_size
        for set_name in self.set_names:
            start = offset
            offset = _set_end(record, offset)
            if set_name == name:
                return record[:start] + _encode_set(name, value) + record[offset:]
        raise SchemaError(f"class {self.class_def.name!r} has no set {name!r}")
