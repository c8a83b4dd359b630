"""On-disk object headers.

"In order to maintain indexes properly, the O2 system records, for each
object, the indexes it belongs to.  This information is stored on disk in
the object header.  When an object becomes persistent, if it is part of
some indexed collection the system creates a header allowing to store
information about 8 indexes (it can be extended if required).  If it is
not indexed, the header does not contain space for any index
information."  — paper, Section 3.2.

Layout::

    byte 0      flags (persistent / indexed / deleted / versioned)
    bytes 1-2   class id (exact type, needed because of inheritance)
    byte 3      number of reserved index slots (0 or 8, 16, 24 ...)
    byte 4      schema version of the class when the record was written
                ("some information about the schema update history of
                the object class" — paper, Section 4.4)
    then        slot bytes: 2 bytes per slot, 0 = empty, else index id

Adding an index id to an object without a free slot *grows the record*,
which may force the storage layer to move it — the expensive reallocation
behind the paper's create-your-first-index-before-loading advice.
"""

from __future__ import annotations

import struct

from repro.errors import IndexSlotOverflowError, SchemaError

#: Slots granted in one extension step.
INDEX_SLOT_BLOCK = 8

#: Struct for the fixed part: flags, class_id, slot count, schema version.
_FIXED = struct.Struct("<BHBB")

#: Where a record's payload starts, for readers compiled once per class
#: (:mod:`repro.objects.codec`) that cannot afford a call per read:
#: ``FIXED_SIZE + SLOT_BYTES * record[SLOT_COUNT_BYTE]``.
FIXED_SIZE = _FIXED.size
SLOT_BYTES = 2
SLOT_COUNT_BYTE = 3
#: The header bytes that decide a record's class at the version it was
#: written under -- class id, slot count (which does not, but sits
#: between them), schema version -- as one slice, for the object
#: manager's table of classes by header.
CLASS_KEY = slice(1, FIXED_SIZE)

FLAG_PERSISTENT = 0x01
FLAG_INDEXED = 0x02
FLAG_DELETED = 0x04
FLAG_VERSIONED = 0x08


class ObjectHeader:
    """Decoded header; encode back with :meth:`encode`."""

    __slots__ = ("flags", "class_id", "index_ids", "slot_count", "schema_version")

    def __init__(
        self,
        class_id: int,
        flags: int = FLAG_PERSISTENT,
        slot_count: int = 0,
        index_ids: list[int] | None = None,
        schema_version: int = 0,
    ):
        if not 0 <= class_id <= 0xFFFF:
            raise SchemaError(f"class id out of range: {class_id}")
        if not 0 <= schema_version <= 0xFF:
            raise SchemaError(f"schema version out of range: {schema_version}")
        self.class_id = class_id
        self.flags = flags
        self.slot_count = slot_count
        self.index_ids = list(index_ids or [])
        self.schema_version = schema_version
        if len(self.index_ids) > self.slot_count:
            raise SchemaError("more index ids than reserved slots")

    # -- construction -------------------------------------------------

    @classmethod
    def for_new_object(
        cls,
        class_id: int,
        in_indexed_collection: bool,
        schema_version: int = 0,
    ) -> "ObjectHeader":
        """Header for a freshly persistent object.  Members of indexed
        collections get a block of 8 slots up front; others get none."""
        slots = INDEX_SLOT_BLOCK if in_indexed_collection else 0
        flags = FLAG_PERSISTENT | (FLAG_INDEXED if in_indexed_collection else 0)
        return cls(class_id, flags, slots, schema_version=schema_version)

    # -- flags ----------------------------------------------------------

    @property
    def is_persistent(self) -> bool:
        return bool(self.flags & FLAG_PERSISTENT)

    @property
    def is_indexed(self) -> bool:
        return bool(self.flags & FLAG_INDEXED)

    # -- index membership ---------------------------------------------

    def add_index(self, index_id: int, allow_extend: bool = True) -> bool:
        """Record membership in ``index_id``.

        Returns ``True`` if the header *grew* (a new slot block had to be
        reserved) — the caller must then rewrite, and possibly move, the
        record.  Raises :class:`IndexSlotOverflowError` when extension is
        disallowed and no slot is free.
        """
        if index_id in self.index_ids:
            return False
        grew = False
        if len(self.index_ids) >= self.slot_count:
            if not allow_extend:
                raise IndexSlotOverflowError(
                    f"object header has no free index slot for index {index_id}"
                )
            self.slot_count += INDEX_SLOT_BLOCK
            grew = True
        self.index_ids.append(index_id)
        self.flags |= FLAG_INDEXED
        return grew

    def remove_index(self, index_id: int) -> None:
        """Drop membership (slots stay reserved; headers never shrink)."""
        if index_id in self.index_ids:
            self.index_ids.remove(index_id)
        if not self.index_ids:
            self.flags &= ~FLAG_INDEXED

    # -- wire format -------------------------------------------------------

    @property
    def size(self) -> int:
        return FIXED_SIZE + SLOT_BYTES * self.slot_count

    def encode(self) -> bytes:
        slots = self.index_ids + [0] * (self.slot_count - len(self.index_ids))
        return struct.pack(
            f"{_FIXED.format}{self.slot_count}H",
            self.flags, self.class_id, self.slot_count, self.schema_version,
            *slots,
        )

    @classmethod
    def decode(cls, record: bytes, offset: int = 0) -> "ObjectHeader":
        flags, class_id, slot_count, version = _FIXED.unpack_from(record, offset)
        raw = struct.unpack_from(f"<{slot_count}H", record, offset + _FIXED.size)
        index_ids = [i for i in raw if i != 0]
        return cls(class_id, flags, slot_count, index_ids, version)

    @staticmethod
    def peek_class_id(record: bytes) -> int:
        """Read only the class id (cheap exact-type dispatch)."""
        return _FIXED.unpack_from(record, 0)[1]

    @staticmethod
    def peek_schema_version(record: bytes) -> int:
        """Read only the schema version the record was written under."""
        return record[4]

    @staticmethod
    def peek_size(record: bytes) -> int:
        """Header size without a full decode (for payload offsets)."""
        return FIXED_SIZE + SLOT_BYTES * record[SLOT_COUNT_BYTE]

    def __repr__(self) -> str:
        return (
            f"ObjectHeader(class={self.class_id}, flags={self.flags:#04x}, "
            f"slots={self.slot_count}, indexes={self.index_ids}, "
            f"v{self.schema_version})"
        )
