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
    is dirty the ``on_evict_dirty`` callback is invoked (write-back),
    after which the page's dirty flag is owned by the next tier.
    """

    def __init__(
        self,
        capacity_pages: int,
        on_evict_dirty: Callable[[Page], None] | None = None,
    ):
        if capacity_pages < 1:
            raise ValueError(f"cache needs at least one page, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self.on_evict_dirty = on_evict_dirty
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

    def insert(self, page: Page) -> None:
        """Admit ``page``, evicting (with write-back) as needed."""
        key = (page.file_id, page.page_no)
        pages = self._pages
        if key not in pages and len(pages) >= self.capacity_pages:
            __, victim = pages.popitem(last=False)
            if victim.dirty and self.on_evict_dirty is not None:
                self.on_evict_dirty(victim)
        pages[key] = page
        pages.move_to_end(key)

    def contains(self, key: PageKey) -> bool:
        """Presence test that does *not* refresh recency."""
        return key in self._pages

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

    def __len__(self) -> int:
        return len(self._pages)
