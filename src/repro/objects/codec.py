"""Binary record codec.

Record layout::

    [object header][scalar attributes, fixed offsets][set attributes]

Scalars (ints, reals, chars, bools, fixed-width strings, refs) live at
offsets precomputed per class, so a query can decode a single attribute
without materializing the whole object: a :class:`RecordCodec` compiles
one ``reader(record)`` per attribute when it is built, with the offset,
width and ``struct`` already bound, and every decode goes through those
readers.  Beside them it compiles the writer from one table of what
each kind packs (``_KINDS``): a generated ``encode_body(values)`` whose
scalar block is a single ``pack`` with every coercion inline, and one
field writer per scalar for ``update_scalar`` (``codec.writer_source``
shows the code).  Set attributes come last and are
either *inline* (small sets: the rids follow the count) or *overflow*
(large sets: only a head rid pointing into the large-collection file) —
O2 stores collections beyond a page threshold in a separate file (paper,
Section 2), which is why 1000-patient ``clients`` sets live apart while
3-patient ones sit next to their provider.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
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


#: ``record -> value`` of one attribute, compiled per class.
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


#: Scalar kind -> (struct code, what the code packs for the python value
#: ``{v}``): the one definition of how each kind is written, spliced into
#: the writers :func:`_compile_body_writer` and :func:`_scalar_field`
#: compile.  ``None`` (an omitted attribute) becomes the kind's zero;
#: ``?`` packs any value's truth.  ``Ns`` cuts an over-long value at
#: ``N`` bytes and NUL-pads a short one, exactly the slice + ``ljust`` a
#: fixed-width field asks for, so STRING is ``{width}s`` and CHAR is
#: ``1s`` (an empty one packs as NUL).  A REF packs its three rid fields
#: in place, NIL's for anything that is not a :class:`Rid`.
_KINDS: dict[AttrKind, tuple[str, str]] = {
    AttrKind.INT32: ("i", "int({v} or 0)"),
    AttrKind.REAL64: ("d", "float({v} or 0.0)"),
    AttrKind.BOOL: ("?", "{v}"),
    AttrKind.CHAR: ("1s", "str({v} or '\\x00').encode('latin-1')"),
    AttrKind.STRING: ("{width}s", "str({v} or '').encode('utf-8')"),
    AttrKind.REF: (_RID_FORMAT, "*({v} if isinstance({v}, Rid) else NIL_RID)"),
}

#: Compiled writers are memoised by layout: every load builds a new
#: database, hence new codecs, for the same few classes.
_WRITER_CACHE_SIZE = 128

#: ``python value -> the field's bytes``.
FieldWriter = Callable[[object], bytes]


def _compile(source: str, name: str, block: str) -> Callable:
    """``name`` as ``source`` defines it, packing through ``block``."""
    namespace = {
        "pack": struct.Struct("<" + block).pack,
        "Rid": Rid,
        "NIL_RID": NIL_RID,
        "encode_set": _encode_set,
    }
    exec(compile(source, "<record writer>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=_WRITER_CACHE_SIZE)
def _scalar_field(kind: AttrKind, width: int) -> tuple[str, str, int, FieldWriter]:
    """``(struct code, expression over {v}, bytes, compiled writer)`` of
    a scalar of ``kind`` (``width`` is a STRING's); the writer is what
    ``update_scalar`` packs."""
    try:
        code, expression = _KINDS[kind]
    except KeyError:
        raise SchemaError(f"cannot encode attribute kind {kind}") from None
    code = code.format(width=width)
    source = f"def write(v):\n    return pack({expression.format(v='v')})\n"
    write = _compile(source, "write", code)
    return code, expression, struct.calcsize("<" + code), write


@lru_cache(maxsize=_WRITER_CACHE_SIZE)
def _compile_body_writer(
    fields: tuple[tuple[str, str, str], ...], set_names: tuple[str, ...]
) -> tuple[Callable[[dict], bytes], str]:
    """``encode_body`` for the scalar ``fields`` (name, struct code,
    expression) and ``set_names`` of one layout, and its source.
    ``encode_body(values)`` takes each attribute from ``values`` (``None``
    when it is omitted), packs the scalar block in one call and appends
    the sets -- the way :mod:`dataclasses` builds an ``__init__``, so no
    per-attribute frame runs."""
    lines = ["def encode_body(values):"]
    for i, (name, __, ___) in enumerate(fields):
        lines.append(
            f"    v{i} = values[{name!r}] if {name!r} in values else None"
        )
    lines.append("    return pack(")
    for i, (__, ___, expression) in enumerate(fields):
        lines.append(f"        {expression.format(v=f'v{i}')},")
    lines.append("    )" + "".join(
        f" + encode_set({name!r}, values[{name!r}] if {name!r} in values else None)"
        for name in set_names
    ))
    source = "\n".join(lines) + "\n"
    block = "".join(code for __, code, ___ in fields)
    return _compile(source, "encode_body", block), source


class RecordCodec:
    """Encodes/decodes instances of one class."""

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
        #: Scalar name -> (offset in the scalar block, width, compiled
        #: writer of the field): what :meth:`update_scalar` packs.
        self._fields: dict[str, tuple[int, int, FieldWriter]] = {}
        fields = []
        offset = 0
        for attr in scalar_attrs:
            code, expression, width, write = _scalar_field(attr.kind, attr.width)
            fields.append((attr.name, code, expression))
            self._fields[attr.name] = (offset, width, write)
            self.readers[attr.name] = _scalar_reader(attr, FIXED_SIZE + offset)
            offset += width
        self.scalar_size = offset
        for position, name in enumerate(self.set_names):
            self.readers[name] = _set_reader(position, FIXED_SIZE + offset)
        #: ``values -> bytes``: everything after the object header, the
        #: scalar block in one ``pack``, then the sets.  An omitted
        #: scalar packs its kind's zero.  Set attributes accept an
        #: :class:`InlineSet`, an :class:`OverflowSet`, or a plain
        #: sequence of rids (encoded inline; the caller must have
        #: checked the inline limit).  The one encoding path beside
        #: :meth:`update_scalar`'s field writers, from the same
        #: ``_KINDS`` table.  :attr:`writer_source` is the Python source
        #: it was compiled from.
        self.encode_body, self.writer_source = _compile_body_writer(
            tuple(fields), self.set_names
        )

    # -- encoding -----------------------------------------------------------

    def encode(self, header: ObjectHeader, values: dict[str, object]) -> bytes:
        """Serialize ``values`` (attribute name -> python value) behind
        ``header``."""
        return header.encode() + self.encode_body(values)

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
        at, width, write = self._fields[name]
        offset = ObjectHeader.peek_size(record) + at
        return record[:offset] + write(value) + record[offset + width:]

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
