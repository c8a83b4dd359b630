"""Heap files of records with creation-order placement.

O2 places objects in files in creation order ("objects are located on
files according to their creation time" — paper, Section 3.2), leaving
growth slack on every page.  When an updated record no longer fits on its
page it is *moved* to the end of the file and a forwarding entry is left
behind — which both costs I/O and destroys clustering, the effect behind
the paper's warning about indexing collections after loading.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import RecordNotFoundError
from repro.simtime import Bucket
from repro.storage.disk import DiskManager, Pager
from repro.storage.page import PAGE_HEADER_SIZE, SLOT_OVERHEAD, Page
from repro.storage.rid import Rid, rid_of

_LOAD = Bucket.LOAD

#: Fraction of a page usable by records before growth slack kicks in.
DEFAULT_FILL_FACTOR = 0.85


class StorageFile:
    """A file of records, addressed by :class:`Rid`."""

    def __init__(
        self,
        disk: DiskManager,
        pager: Pager,
        file_id: int | None = None,
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ):
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill factor must be in (0, 1], got {fill_factor}")
        self.disk = disk
        self.pager = pager
        self.file_id = disk.create_file() if file_id is None else file_id
        self.fill_factor = fill_factor
        #: Bytes of growth slack an append leaves free on a page that
        #: already holds records (every page of a file has one size).
        self._slack = int(
            (disk.page_size - PAGE_HEADER_SIZE) * (1.0 - fill_factor)
        )
        self._record_count = 0
        #: The disk's own page list for this file (one object for the
        #: life of the file: a crash refills it in place), so the tail
        #: an append goes to is a list index, not a catalog call.
        self._pages = disk._file(self.file_id)

    # -- sizing ----------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self.disk.num_pages(self.file_id)

    @property
    def record_count(self) -> int:
        """Live records inserted minus deleted (forwarded records count
        once, at their new location)."""
        return self._record_count

    # -- record operations -------------------------------------------------

    def insert(self, record: bytes) -> Rid:
        """Append ``record`` at the end of the file; return its rid."""
        page, resident = self._append_page(len(record) + SLOT_OVERHEAD)
        slot = page.insert(record)
        if not (resident and self.pager.write_back):
            self.pager.mark_dirty(self.file_id, page.page_no)
        self._record_count += 1
        return rid_of((self.file_id, page.page_no, slot))

    def read(self, rid: Rid) -> bytes:
        """Fetch the record at ``rid``, transparently following at most
        one forwarding hop (each hop is a separate page access)."""
        record, _actual = self.read_resolving(rid)
        return record

    def read_resolving(self, rid: Rid) -> tuple[bytes, Rid]:
        """Like :meth:`read` but also returns the rid where the record
        actually lives, so callers can repair stale references."""
        file_id, page_no, slot = rid
        if file_id != self.file_id:
            self._check_file(rid)  # raises
        found = self.pager.get_page(file_id, page_no).resolve(slot)
        if found.__class__ is bytes:
            return found, rid
        record = self.pager.get_page(found.file_id, found.page_no).resolve(
            found.slot
        )
        if record.__class__ is not bytes:
            raise RecordNotFoundError(
                f"forwarding chain longer than one hop at {rid} -> {found}"
            )
        return record, found

    def update(self, rid: Rid, record: bytes) -> Rid:
        """Replace the record at ``rid``.

        If the new record still fits on its page the rid is preserved.
        Otherwise the record moves to the end of the file, a forwarding
        entry is left at the old slot, and the *new* rid is returned —
        this is the "reallocate all objects on disk" cost of Section 3.2.
        Forwarding never chains: when an already-moved record moves
        again, the original slot is re-pointed at the new location and
        the intermediate stub is reclaimed.
        """
        self._check_file(rid)
        origin = rid
        origin_page = page = self.pager.get_page(rid.file_id, rid.page_no)
        old = origin_page.resolve(rid.slot)
        if old.__class__ is not bytes:  # forwarded: the record is one hop on
            rid = old
            page = self.pager.get_page(rid.file_id, rid.page_no)
            old = page.read(rid.slot)
        if page.replace(rid.slot, old, record):
            if not self.pager.write_back:  # else fetched last: resident
                self.pager.mark_dirty(rid.file_id, rid.page_no)
            return rid
        new_rid = self._move(rid, page, record)
        if origin != rid:
            # Collapse the chain: origin -> new location directly.
            origin_page.repoint(origin.slot, new_rid)
            page.delete(rid.slot)
            self.pager.mark_dirty(origin.file_id, origin.page_no)
        return new_rid

    def replace(self, rid: Rid, old: bytes, record: bytes) -> Rid:
        """:meth:`update` for a caller that holds what
        :meth:`read_resolving` has just returned: ``old`` is the record
        and ``rid`` where it lives, so no slot is probed a second time.
        The page is still fetched through the pager -- that access is a
        counted cache hit and an LRU touch, both part of every pinned
        output."""
        file_id, page_no, slot = rid
        page = self.pager.get_page(file_id, page_no)
        if page.replace(slot, old, record):
            if not self.pager.write_back:  # else fetched last: resident
                self.pager.mark_dirty(file_id, page_no)
            return rid
        return self._move(rid, page, record)

    def delete(self, rid: Rid) -> None:
        """Remove the record at ``rid`` (following a forwarding hop)."""
        self._check_file(rid)
        page = self.pager.get_page(rid.file_id, rid.page_no)
        target = page.forward_target(rid.slot)
        if target is not None:
            page.delete(rid.slot)
            self.pager.mark_dirty(rid.file_id, rid.page_no)
            page = self.pager.get_page(target.file_id, target.page_no)
            rid = target
        page.delete(rid.slot)
        self.pager.mark_dirty(rid.file_id, rid.page_no)
        self._record_count -= 1

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Sequential scan in physical order, yielding ``(rid, record)``.

        Forwarded slots are skipped (their record is yielded at its new
        physical position), so each live record appears exactly once.
        """
        for page_no in range(self.num_pages):
            page = self.pager.get_page(self.file_id, page_no)
            for slot in page.slots():
                yield Rid(self.file_id, page_no, slot), page.read(slot)

    def rids(self) -> Iterator[Rid]:
        """Sequential scan yielding rids only (still reads every page)."""
        for rid, _record in self.scan():
            yield rid

    # -- internals ---------------------------------------------------------

    def _append_page(self, need: int, avoid: int = -1) -> tuple[Page, bool]:
        """The page an append of ``need`` bytes (slot entry included)
        goes to, and whether the pager already holds it: the file's last
        page, fetched through the pager, when it has room; otherwise a
        freshly allocated one the pager has not seen.  ``avoid`` names a
        page the record must not land on (the one it is moving off).

        Room means ``need`` plus the growth slack -- but slack is only
        ever reserved beside records: an empty page takes whatever fits
        it, or a record between ``fill_factor`` and a full page could be
        stored nowhere.
        """
        pages = self._pages
        if pages:
            last = pages[-1].page_no
            page = self.pager.get_page(self.file_id, last)
            used = page.used_bytes
            if last != avoid and (
                not used or need + self._slack <= page.capacity - used
            ):
                return page, True
        return self.disk.allocate_page(self.file_id), False

    def _move(self, rid: Rid, page: Page, record: bytes) -> Rid:
        tail, __ = self._append_page(len(record) + SLOT_OVERHEAD, rid.page_no)
        slot = tail.insert(record)
        new_rid = rid_of((self.file_id, tail.page_no, slot))
        page.forward(rid.slot, new_rid)
        self.pager.mark_dirty(rid.file_id, rid.page_no)
        self.pager.mark_dirty(new_rid.file_id, new_rid.page_no)
        self.disk.counters.records_moved += 1
        self.disk.clock.charge_us(_LOAD, self.disk.params.record_move_us)
        return new_rid

    def _check_file(self, rid: Rid) -> None:
        if rid.file_id != self.file_id:
            raise RecordNotFoundError(
                f"rid {rid} does not belong to file {self.file_id}"
            )
