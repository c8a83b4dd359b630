"""On-disk object headers.

"In order to maintain indexes properly, the O2 system records, for each
object, the indexes it belongs to.  This information is stored on disk in
the object header.  When an object becomes persistent, if it is part of
some indexed collection the system creates a header allowing to store
information about 8 indexes (it can be extended if required).  If it is
not indexed, the header does not contain space for any index
information."  — paper, Section 3.2.

Layout::

    byte 0      flags (persistent / indexed / deleted)
    bytes 1-2   class id
    byte 3      number of reserved index slots (0 or 8, 16, 24 ...)
    byte 4      reserved, always 0 (where O2 keeps "some information
                about the schema update history of the object class" —
                paper, Section 4.4; this system has no schema evolution,
                but the byte keeps every record its measured size)
    then        slot bytes: 2 bytes per slot, 0 = empty, else index id

Adding an index id to an object without a free slot *grows the record*,
which may force the storage layer to move it — the expensive reallocation
behind the paper's create-your-first-index-before-loading advice.
"""

from __future__ import annotations

import struct

from repro.errors import SchemaError

#: Slots granted in one extension step.
INDEX_SLOT_BLOCK = 8

#: Struct for the fixed part: flags, class_id, slot count, reserved byte
#: (a pad byte: packed as 0, skipped on unpack).
_FIXED = struct.Struct("<BHBx")

#: Where a record's payload starts, for readers compiled once per class
#: (:mod:`repro.objects.codec`) that cannot afford a call per read:
#: ``FIXED_SIZE + SLOT_BYTES * record[SLOT_COUNT_BYTE]``.
FIXED_SIZE = _FIXED.size
SLOT_BYTES = 2
SLOT_COUNT_BYTE = 3
#: The header bytes that decide a record's class -- its class id -- as
#: one slice, for the object manager's table of classes by header.
CLASS_KEY = slice(1, SLOT_COUNT_BYTE)

#: The whole header -- fixed part, then the slots -- as one struct per
#: slot count (the count is one byte), indexed by that count: an encode
#: or decode is one ``pack`` or ``unpack_from`` and no format string.
_HEADERS = tuple(struct.Struct(f"{_FIXED.format}{n}H") for n in range(256))
#: Enough empty slots to fill any header's free ones.
_EMPTY_SLOTS = (0,) * 255

#: An ``ObjectHeader`` without ``__init__`` (:meth:`ObjectHeader.decode`).
_new_header = object.__new__

FLAG_PERSISTENT = 0x01
FLAG_INDEXED = 0x02
FLAG_DELETED = 0x04


class ObjectHeader:
    """Decoded header; encode back with :meth:`encode`."""

    __slots__ = ("flags", "class_id", "index_ids", "slot_count")

    def __init__(
        self,
        class_id: int,
        flags: int = FLAG_PERSISTENT,
        slot_count: int = 0,
    ):
        if not 0 <= class_id <= 0xFFFF:
            raise SchemaError(f"class id out of range: {class_id}")
        self.class_id = class_id
        self.flags = flags
        self.slot_count = slot_count
        #: The indexes the object belongs to (:meth:`add_index`).
        self.index_ids: list[int] = []

    # -- construction -------------------------------------------------

    @classmethod
    def for_new_object(
        cls, class_id: int, in_indexed_collection: bool
    ) -> "ObjectHeader":
        """Header for a freshly persistent object.  Members of indexed
        collections get a block of 8 slots up front; others get none."""
        slots = INDEX_SLOT_BLOCK if in_indexed_collection else 0
        flags = FLAG_PERSISTENT | (FLAG_INDEXED if in_indexed_collection else 0)
        return cls(class_id, flags, slots)

    # -- index membership ---------------------------------------------

    def add_index(self, index_id: int) -> bool:
        """Record membership in ``index_id``.

        Returns ``True`` if the header *grew* (a new slot block had to be
        reserved) — the caller must then rewrite, and possibly move, the
        record.
        """
        if index_id in self.index_ids:
            return False
        grew = False
        if len(self.index_ids) >= self.slot_count:
            self.slot_count += INDEX_SLOT_BLOCK
            grew = True
        self.index_ids.append(index_id)
        self.flags |= FLAG_INDEXED
        return grew

    # -- wire format -------------------------------------------------------

    @property
    def size(self) -> int:
        return FIXED_SIZE + SLOT_BYTES * self.slot_count

    def encode(self) -> bytes:
        index_ids = self.index_ids
        slot_count = self.slot_count
        return _HEADERS[slot_count].pack(
            self.flags, self.class_id, slot_count, *index_ids, *_EMPTY_SLOTS[len(index_ids):slot_count],
        )

    @classmethod
    def decode(cls, record: bytes) -> "ObjectHeader":
        """The header ``record`` starts with.  Built without
        ``__init__``: what one byte and one short can hold is in range,
        and a decoded header never has more index ids than slots."""
        header = _new_header(cls)
        (
            header.flags, header.class_id, header.slot_count, *slots,
        ) = _HEADERS[record[SLOT_COUNT_BYTE]].unpack_from(record)
        header.index_ids = [*filter(None, slots)]
        return header

    @staticmethod
    def peek_class_id(record: bytes) -> int:
        """Read only the class id (cheap exact-type dispatch)."""
        return _FIXED.unpack_from(record, 0)[1]

    @staticmethod
    def peek_size(record: bytes) -> int:
        """Header size without a full decode (for payload offsets)."""
        return FIXED_SIZE + SLOT_BYTES * record[SLOT_COUNT_BYTE]

    def __repr__(self) -> str:
        return (
            f"ObjectHeader(class={self.class_id}, flags={self.flags:#04x}, "
            f"slots={self.slot_count}, indexes={self.index_ids})"
        )
