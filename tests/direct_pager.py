"""A pager with no cache, for tests of the record layer below the
buffer system."""

from __future__ import annotations

from repro.storage import DiskManager
from repro.storage.page import Page


class DirectPager:
    """Every access is a disk read; every ``mark_dirty`` a disk
    write."""

    #: Write-through: ``mark_dirty`` *is* the disk write.
    write_back = False

    def __init__(self, disk: DiskManager):
        self.disk = disk

    def get_page(self, file_id: int, page_no: int) -> Page:
        return self.disk.read_page(file_id, page_no)

    def mark_dirty(self, file_id: int, page_no: int) -> None:
        self.disk.write_page(file_id, page_no)
