"""A single buffer cache (one tier of the client/server pair)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.storage.page import Page

PageKey = tuple[int, int]  # (file_id, page_no)


class BufferCache:
    """A fixed-capacity LRU page cache.

    The cache holds references to :class:`Page` objects keyed by
    ``(file_id, page_no)`` in one ``OrderedDict``, least recently used
    first.  LRU is what the experiments use: it produces the interaction
    the paper observes, where a sequential scan flushes the pages a
    concurrent random access pattern would like to keep.  When inserting
    into a full cache the least recently used page is the victim; if it
    is dirty, the write-back the caller passed with the page is invoked,
    after which the page's dirty flag is owned by the next tier.  The
    cache keeps no reference to the next tier: the owner of both tiers
    passes the write-back on every insert, so no cache holds its owner.
    """

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError(f"cache needs at least one page, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._pages: OrderedDict[PageKey, Page] = OrderedDict()

    def lookup(self, key: PageKey) -> Page | None:
        """Return the cached page and refresh its recency, or ``None``.
        A miss is a membership test, not a caught ``KeyError``: raising
        costs several times the test, and a cold run misses often."""
        pages = self._pages
        if key not in pages:
            return None
        pages.move_to_end(key)
        return pages[key]

    def insert(self, page: Page, write_back: Callable[[Page], None]) -> None:
        """Admit ``page``, evicting as needed; a dirty victim goes to
        ``write_back`` before ``page`` takes its frame."""
        key = (page.file_id, page.page_no)
        pages = self._pages
        if key not in pages and len(pages) >= self.capacity_pages:
            __, victim = pages.popitem(last=False)
            if victim.dirty:
                write_back(victim)
        pages[key] = page
        pages.move_to_end(key)

    def drop(self, key: PageKey) -> None:
        """Remove a page without write-back (caller handled it)."""
        self._pages.pop(key, None)

    def dirty_pages(self) -> list[Page]:
        """All dirty pages currently cached."""
        return [page for page in self._pages.values() if page.dirty]

    # simlint: ok[CHARGE] dropping frames models no I/O; flushes are charged by callers
    def clear(self) -> None:
        """Drop everything (server shutdown / cold restart)."""
        self._pages.clear()
