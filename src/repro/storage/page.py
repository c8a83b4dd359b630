"""A slotted 4 KB page.

Records are opaque byte strings addressed by a slot number.  The page
keeps a slot directory so records can be deleted or moved while their
slot number (and hence every :class:`~repro.storage.rid.Rid` pointing at
them) stays stable.  A slot can also hold a *forwarding* entry when its
record was reallocated elsewhere (see :meth:`Page.forward`), which is how
the expensive post-hoc re-indexing of Section 3.2 is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PageFullError, RecordNotFoundError, RecordTooLargeError
from repro.storage.rid import Rid
from repro.units import PAGE_SIZE

#: Bytes of page bookkeeping (LSN, free-space pointer, slot count...).
PAGE_HEADER_SIZE = 32

#: Bytes of slot-directory bookkeeping per record.
SLOT_OVERHEAD = 4

#: Marker object stored in a slot whose record moved; holds the new rid.
class _Forward:
    __slots__ = ("target",)

    def __init__(self, target: Rid) -> None:
        self.target = target


@dataclass(frozen=True)
class PageImage:
    """An immutable snapshot of a page's logical content.

    Slots hold ``bytes`` for live records, a :class:`Rid` for forwarding
    entries and ``None`` for deleted slots — exactly the information a
    physical log record needs to redo or undo a change.  ``page_lsn`` is
    the stamp the page carried when the image was taken.
    """

    slots: tuple[bytes | Rid | None, ...]
    used: int
    page_lsn: int


#: The image of a page that has never held a record (before-image of a
#: freshly allocated page).
EMPTY_PAGE_IMAGE = PageImage(slots=(), used=0, page_lsn=0)


class Page:
    """One slotted page of a simulated file."""

    __slots__ = (
        "file_id",
        "page_no",
        "_slots",
        "used_bytes",
        "capacity",
        "dirty",
        "page_lsn",
    )

    def __init__(self, file_id: int, page_no: int, page_size: int = PAGE_SIZE):
        if page_size <= PAGE_HEADER_SIZE:
            raise ValueError(f"page size {page_size} too small")
        self.file_id = file_id
        self.page_no = page_no
        self._slots: list[bytes | _Forward | None] = []
        #: Bytes consumed by live records and their slot entries.
        self.used_bytes = 0
        self.capacity = page_size - PAGE_HEADER_SIZE
        self.dirty = False
        #: LSN of the last log record whose change touched this page
        #: (0 = never touched by a logged update).  The WAL rule compares
        #: it against the log's durable LSN before a disk write.
        self.page_lsn = 0

    # -- space accounting ---------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Bytes still available for new records (incl. slot overhead)."""
        return self.capacity - self.used_bytes

    @property
    def record_count(self) -> int:
        """Number of live (non-deleted, non-forwarded) records."""
        return sum(1 for s in self._slots if isinstance(s, bytes))

    # -- record operations --------------------------------------------

    def insert(self, record: bytes, slack: int = 0) -> int:
        """Store ``record`` and return its slot number.

        ``slack`` reserves extra free bytes, modeling O2 "always leaving
        some extra space to deal with growing strings or collections"
        (paper, Section 2).
        """
        need = len(record) + SLOT_OVERHEAD
        if need > self.capacity:
            raise RecordTooLargeError(
                f"record of {len(record)} bytes exceeds page capacity "
                f"{self.capacity}"
            )
        if need + slack > self.capacity - self.used_bytes:
            raise PageFullError(
                f"page {self.file_id}:{self.page_no} has {self.free_bytes} "
                f"free bytes, record needs {need} (+{slack} slack)"
            )
        slots = self._slots
        slots.append(record)
        self.used_bytes += need
        self.dirty = True
        return len(slots) - 1

    def resolve(self, slot: int) -> bytes | Rid:
        """The one probe of the slot directory: the record at ``slot``
        (``bytes``), or the rid its forwarding entry points at.

        Raises :class:`RecordNotFoundError` for a slot the page never
        had and for a deleted one.  Every other record operation reaches
        those checks through here.  A negative slot is refused before
        the list is indexed (``NIL_RID``'s slot is -1, and a Python list
        would wrap it to the last record).
        """
        try:
            if slot < 0:
                raise IndexError(slot)
            entry = self._slots[slot]
        except IndexError:
            raise RecordNotFoundError(
                f"no slot {slot} on page {self.file_id}:{self.page_no}"
            ) from None
        if entry.__class__ is bytes:
            return entry
        if entry is None:
            raise RecordNotFoundError(
                f"slot {slot} of page {self.file_id}:{self.page_no} was deleted"
            )
        return entry.target

    def read(self, slot: int) -> bytes:
        """Return the record at ``slot``.

        Raises :class:`RecordNotFoundError` for deleted slots; raises a
        forwarding-aware error for moved records (callers resolve moves
        through :meth:`resolve` or :meth:`forward_target`).
        """
        found = self.resolve(slot)
        if found.__class__ is not bytes:
            raise RecordNotFoundError(
                f"slot {slot} of page {self.file_id}:{self.page_no} was "
                f"forwarded to {found}; resolve via forward_target()"
            )
        return found

    def replace(self, slot: int, old: bytes, record: bytes) -> bool:
        """Replace ``old``, the record the caller has just read from
        ``slot``, with ``record`` in place: the slot directory is not
        probed again, only checked to hold that very object.

        Returns ``True`` on success, ``False`` when the new record does
        not fit (the caller must then move the record to another page).
        """
        if self._slots[slot] is not old:
            raise RecordNotFoundError(
                f"slot {slot} of page {self.file_id}:{self.page_no} no "
                "longer holds the record that was read from it"
            )
        delta = len(record) - len(old)
        if delta > self.capacity - self.used_bytes:
            return False
        self._slots[slot] = record
        self.used_bytes += delta
        self.dirty = True
        return True

    def delete(self, slot: int) -> None:
        """Drop the record at ``slot``; its space becomes reusable."""
        found = self.resolve(slot)
        size = len(found) if found.__class__ is bytes else Rid.DISK_SIZE
        self._slots[slot] = None
        self.used_bytes -= size + SLOT_OVERHEAD
        self.dirty = True

    def forward(self, slot: int, target: Rid) -> None:
        """Replace the record at ``slot`` with a forwarding entry to
        ``target`` (the record was reallocated on another page)."""
        found = self.resolve(slot)
        if found.__class__ is not bytes:
            raise RecordNotFoundError(
                f"slot {slot} of page {self.file_id}:{self.page_no} is "
                "already forwarded"
            )
        self.used_bytes -= len(found) + SLOT_OVERHEAD
        self.used_bytes += Rid.DISK_SIZE + SLOT_OVERHEAD
        self._slots[slot] = _Forward(target)
        self.dirty = True

    def forward_target(self, slot: int) -> Rid | None:
        """The rid a forwarded slot points at, or ``None`` if the slot
        holds a live record."""
        found = self.resolve(slot)
        return None if found.__class__ is bytes else found

    def repoint(self, slot: int, target: Rid) -> None:
        """Re-aim an existing forwarding entry (chain collapse when a
        moved record moves again)."""
        if self.resolve(slot).__class__ is bytes:
            raise RecordNotFoundError(
                f"slot {slot} of page {self.file_id}:{self.page_no} is not "
                "forwarded"
            )
        self._slots[slot].target = target
        self.dirty = True

    def slots(self) -> list[int]:
        """Slot numbers of live records, in slot order (creation order)."""
        return [i for i, s in enumerate(self._slots) if isinstance(s, bytes)]

    # -- physical images (recovery) ------------------------------------

    def capture(self) -> PageImage:
        """Snapshot the page's logical content as an immutable image."""
        slots = self._slots
        if _Forward in map(type, slots):  # rare: most pages hold none
            slots = [s.target if type(s) is _Forward else s for s in slots]
        return PageImage(
            slots=tuple(slots), used=self.used_bytes, page_lsn=self.page_lsn
        )

    def restore(self, image: PageImage) -> None:
        """Overwrite the page's content with ``image`` (disk-crash
        rollback to the durable version, or a redo of an after-image)."""
        self._slots = [
            _Forward(s) if isinstance(s, Rid) else s for s in image.slots
        ]
        self.used_bytes = image.used
        self.page_lsn = image.page_lsn
        self.dirty = False

    def apply_undo(self, before: PageImage, after: PageImage) -> None:
        """Revert only the slots that differ between ``before`` and
        ``after``.

        A full-page ``restore(before)`` would be unsound under
        record-level locking: another transaction may have committed its
        own update to a *different* slot of the same page since the
        before-image was taken, and restoring the whole page would erase
        that committed change.  Slot-diff undo touches exactly the slots
        the logged change modified.
        """
        width = max(len(before.slots), len(after.slots))
        for slot in range(width):
            b = before.slots[slot] if slot < len(before.slots) else None
            a = after.slots[slot] if slot < len(after.slots) else None
            if b == a:
                continue
            while len(self._slots) <= slot:
                self._slots.append(None)
            self._slots[slot] = _Forward(b) if isinstance(b, Rid) else b
        # An undone insert leaves a dead slot at the tail rather than
        # shrinking the directory: slot numbers (and hence rids) are
        # never reused, same as delete().
        self._recompute_used()
        self.dirty = True

    def _recompute_used(self) -> None:
        used = 0
        for s in self._slots:
            if isinstance(s, bytes):
                used += len(s) + SLOT_OVERHEAD
            elif isinstance(s, _Forward):
                used += Rid.DISK_SIZE + SLOT_OVERHEAD
        self.used_bytes = used

    def __repr__(self) -> str:
        return (
            f"Page({self.file_id}:{self.page_no}, records={self.record_count}, "
            f"free={self.free_bytes})"
        )
