"""The client/server page path.

Every page access during a measured experiment goes through
:meth:`ClientServerSystem.get_page`:

1. client-cache lookup — a hit costs nothing but CPU already charged by
   the caller; a miss is a *client page fault* and triggers an RPC;
2. server-cache lookup — a miss reads the page from disk (10 ms);
3. the page travels server → client (transfer time + RPC overhead) and is
   admitted to the client cache, possibly evicting (write-back) another.

This is the ``ClientServerSystem`` a :class:`~repro.storage.file.StorageFile`
uses as its pager.  ``shutdown()`` flushes dirty pages and empties both
tiers, producing the *cold* state in which all the paper's queries run
("the server was shutdown at the end of each evaluation", Section 2).
"""

from __future__ import annotations

from typing import Callable

from repro.buffer.cache import BufferCache
from repro.simtime import Bucket, MemoryModel
from repro.storage.disk import DiskManager
from repro.storage.page import Page

_TRANSFER = Bucket.TRANSFER
_RPC = Bucket.RPC


class ClientServerSystem:
    """Two LRU tiers between the application and the simulated disk.

    The *server* tier (cache + disk) is one per system; the *client*
    tier is swappable — the multi-client query service
    (:mod:`repro.service`) gives every session its own client cache and
    attaches the active session's tier before each scheduling slice
    (:meth:`attach_client_tier`), so all sessions contend for the same
    server cache while keeping private client caches, exactly the
    paper's one-server/many-workstations topology.
    """

    def __init__(
        self,
        disk: DiskManager,
        memory: MemoryModel | None = None,
    ):
        self.disk = disk
        self.memory = memory or disk.params.memory
        self.server_cache = BufferCache(
            self.memory.server_cache_pages,
            on_evict_dirty=self._write_back_to_disk,
        )
        self.client_cache = BufferCache(
            self.memory.client_cache_pages,
            on_evict_dirty=self._write_back_to_server,
        )
        #: Invoked on every client page fault, *before* the RPC is
        #: issued — the query service uses it as a context-switch point.
        self.on_fault: Callable[[], None] | None = None

    # -- client-tier management -------------------------------------------

    def new_client_tier(self) -> BufferCache:
        """A fresh client cache wired for write-back to this server."""
        return BufferCache(
            self.memory.client_cache_pages,
            on_evict_dirty=self._write_back_to_server,
        )

    def attach_client_tier(self, cache: BufferCache) -> BufferCache:
        """Make ``cache`` the active client tier; returns the previous
        one (still valid — re-attach it to resume that client)."""
        previous = self.client_cache
        self.client_cache = cache
        return previous

    # -- Pager protocol ---------------------------------------------------

    #: Dirty pages stay cached and are written back on eviction or flush.
    write_back = True

    def get_page(self, file_id: int, page_no: int) -> Page:
        """Fetch a page through both cache tiers, charging all traffic."""
        key = (file_id, page_no)
        counters = self.disk.counters
        pages = self.client_cache._pages  # a hit is BufferCache.lookup, inline
        if key in pages:
            pages.move_to_end(key)
            counters.client_hits += 1
            return pages[key]

        if self.on_fault is not None:
            self.on_fault()
        counters.client_faults += 1
        counters.rpcs += 1
        counters.rpc_bytes += self.disk.page_size
        clock = self.disk.clock
        params = self.disk.params
        clock.charge_ms(_RPC, params.rpc_overhead_ms)

        page = self.server_cache.lookup(key)
        if page is not None:
            counters.server_hits += 1
        else:
            counters.server_faults += 1
            page = self.disk.read_page(file_id, page_no)
            self.server_cache.insert(page)

        counters.server_to_client += 1
        clock.charge_ms(_TRANSFER, params.page_transfer_ms)
        self.client_cache.insert(page)
        return page

    def mark_dirty(self, file_id: int, page_no: int) -> None:
        """Flag a (client-resident) page as modified."""
        page = self.client_cache.lookup((file_id, page_no))
        if page is None:
            # Page was modified straight after allocation, before any
            # read.  Admit it so write-back accounting still happens.
            page = self.disk.peek_page(file_id, page_no)
            self.client_cache.insert(page)
        page.dirty = True

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty page down to disk (checkpoint)."""
        for page in self.client_cache.dirty_pages():
            self._write_back_to_server(page)
        for page in self.server_cache.dirty_pages():
            self._write_back_to_disk(page)

    def shutdown(self) -> None:
        """Flush then empty both tiers: the next access is fully cold."""
        self.flush()
        self.client_cache.clear()
        self.server_cache.clear()

    # simlint: ok[CHARGE] deliberately uncharged: harness reset between runs
    def restart_cold(self) -> None:
        """Empty both tiers *without* charging flush I/O.

        Used by the experiment harness between runs: loading wrote its
        data and was measured separately; the query must simply start
        cold.  Dirty flags are cleared, not written.
        """
        for page in self.client_cache.dirty_pages():
            page.dirty = False
        for page in self.server_cache.dirty_pages():
            page.dirty = False
        self.client_cache.clear()
        self.server_cache.clear()

    # simlint: ok[CHARGE] a power failure costs nothing by definition
    def crash_volatile(self) -> None:
        """Both tiers vanish with the power: no write-back, no charges.

        Unlike :meth:`restart_cold` this does not even clear dirty
        flags — the page objects themselves are reverted to their
        durable images by :meth:`DiskManager.crash`, which owns the
        crash semantics."""
        self.client_cache.clear()
        self.server_cache.clear()

    # -- write-back callbacks -------------------------------------------------

    def _write_back_to_server(self, page: Page) -> None:
        """A dirty page leaves the client cache: one RPC up, then it is
        the server tier's problem."""
        counters = self.disk.counters
        counters.rpcs += 1
        counters.rpc_bytes += self.disk.page_size
        self.disk.clock.charge_ms(_RPC, self.disk.params.rpc_overhead_ms)
        self.disk.clock.charge_ms(_TRANSFER, self.disk.params.page_transfer_ms)
        self.server_cache.insert(page)

    def _write_back_to_disk(self, page: Page) -> None:
        self.disk.write_page(page.file_id, page.page_no)
