"""Unit tests for the buffer substrate (the LRU cache, client/server)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferCache, ClientServerSystem
from repro.simtime import MemoryModel
from repro.storage import DiskManager, StorageFile
from repro.storage.page import Page
from repro.units import PAGE_SIZE


# ---------------------------------------------------------- BufferCache

def page(no: int, dirty: bool = False) -> Page:
    p = Page(0, no)
    p.dirty = dirty
    return p


class TestBufferCache:
    def test_insert_lookup(self):
        cache = BufferCache(2)
        p = page(0)
        cache.insert(p)
        assert cache.lookup((0, 0)) is p
        assert cache.lookup((0, 1)) is None

    def test_capacity_enforced(self):
        cache = BufferCache(2)
        for no in range(5):
            cache.insert(page(no))
        assert len(cache._pages) == 2

    def test_eviction_is_lru(self):
        cache = BufferCache(2)
        cache.insert(page(0))
        cache.insert(page(1))
        cache.lookup((0, 0))        # 1 is now the LRU
        cache.insert(page(2))
        assert (0, 0) in cache._pages
        assert (0, 1) not in cache._pages

    def test_lookup_miss_leaves_the_eviction_order_alone(self):
        evicted = []
        cache = BufferCache(3, on_evict_dirty=evicted.append)
        for no in range(3):
            cache.insert(page(no, dirty=True))
        assert cache.lookup((0, 7)) is None
        assert cache.lookup((1, 0)) is None
        assert len(cache._pages) == 3  # a miss admits nothing
        for no in range(3, 6):
            cache.insert(page(no))
        assert [p.page_no for p in evicted] == [0, 1, 2]

    def test_dirty_eviction_callback(self):
        written = []
        cache = BufferCache(1, on_evict_dirty=written.append)
        dirty = page(0, dirty=True)
        cache.insert(dirty)
        cache.insert(page(1))
        assert written == [dirty]

    def test_clean_eviction_no_callback(self):
        written = []
        cache = BufferCache(1, on_evict_dirty=written.append)
        cache.insert(page(0))
        cache.insert(page(1))
        assert written == []

    def test_reinsert_same_page_no_evict(self):
        cache = BufferCache(1)
        p = page(0)
        cache.insert(p)
        cache.insert(p)
        assert len(cache._pages) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BufferCache(0)


class TestLRUPolicy:
    """The replacement policy is LRU, kept in the cache's one ordered
    map: the cases the separate policy class used to answer to."""

    def test_evicts_least_recent(self):
        evicted = []
        cache = BufferCache(2, on_evict_dirty=evicted.append)
        first, second = page(0, dirty=True), page(1, dirty=True)
        cache.insert(first)
        cache.insert(second)
        cache.insert(first)  # refresh: the victim is now 1
        cache.insert(page(2, dirty=True))
        assert evicted == [second]
        cache.insert(page(3, dirty=True))
        assert evicted == [second, first]

    def test_discard(self):
        evicted = []
        cache = BufferCache(1, on_evict_dirty=evicted.append)
        cache.insert(page(0, dirty=True))
        cache.drop((0, 0))
        assert len(cache._pages) == 0
        cache.drop((9, 9))  # absent: no error
        cache.insert(page(1))  # the dropped page holds no frame ...
        assert len(cache._pages) == 1
        assert evicted == []   # ... and is never written back

    def test_empty_cache_evicts_nothing(self):
        evicted = []
        cache = BufferCache(1, on_evict_dirty=evicted.append)
        cache.drop((0, 0))
        cache.clear()
        assert cache.lookup((0, 0)) is None
        assert cache.dirty_pages() == []
        cache.insert(page(0, dirty=True))
        assert evicted == [] and len(cache._pages) == 1


class ListLRU:
    """The reference: a plain list of keys, least recently used first."""

    def __init__(self, capacity: int):
        self.capacity, self.keys, self.evicted = capacity, [], []

    def lookup(self, key) -> bool:
        hit = key in self.keys
        if hit:
            self.keys.remove(key)
            self.keys.append(key)
        return hit

    def insert(self, key) -> None:
        if key in self.keys:
            self.keys.remove(key)
        elif len(self.keys) >= self.capacity:
            self.evicted.append(self.keys.pop(0))
        self.keys.append(key)

    def drop(self, key) -> None:
        if key in self.keys:
            self.keys.remove(key)


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(("lookup", "insert", "insert-dirty", "drop")),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=80,
)


class TestLRUModel:
    @given(st.integers(min_value=1, max_value=5), _CACHE_OPS)
    @settings(max_examples=200, deadline=None)
    def test_random_ops_match_the_list_reference(self, capacity, ops):
        """Same residents after every operation, same victims in the
        same order, the same dirty call-backs."""
        written = []
        cache = BufferCache(capacity, on_evict_dirty=written.append)
        model = ListLRU(capacity)
        pages = {no: page(no) for no in range(8)}
        expect_written = []
        for op, no in ops:
            key = (0, no)
            if op == "lookup":
                assert (cache.lookup(key) is not None) == model.lookup(key)
            elif op == "drop":
                cache.drop(key)
                model.drop(key)
            else:
                pages[no].dirty = op == "insert-dirty"
                before = len(model.evicted)
                model.insert(key)
                expect_written += [
                    pages[victim[1]] for victim in model.evicted[before:]
                    if pages[victim[1]].dirty
                ]
                cache.insert(pages[no])
            assert len(cache._pages) == len(model.keys)
            assert all(key in cache._pages for key in model.keys)
            assert written == expect_written
        # Flush the cache with fresh pages: what is left leaves in the
        # model's recency order.
        for resident in model.keys:
            pages[resident[1]].dirty = True
        del written[:]
        for no in range(100, 100 + capacity):
            cache.insert(page(no))
        assert [(p.file_id, p.page_no) for p in written] == model.keys


# ---------------------------------------------------------- MemoryModel

class TestMemoryModel:
    def test_default_budgets(self):
        mem = MemoryModel()
        assert mem.server_cache_pages == 1024      # 4 MB of 4 KB pages
        assert mem.client_cache_pages == 8192      # 32 MB -> 8000ish pages
        assert mem.query_memory_bytes == 40 * 1024 * 1024

    def test_scaling_preserves_ratio(self):
        mem = MemoryModel().scaled(0.01)
        ratio = mem.client_cache_bytes / MemoryModel().client_cache_bytes
        assert ratio == pytest.approx(0.01, rel=0.01)
        assert mem.query_memory_bytes == pytest.approx(
            MemoryModel().query_memory_bytes * 0.01, rel=0.05
        )

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryModel().scaled(0)


# ---------------------------------------------------------- ClientServerSystem

def small_system(client_pages: int = 4, server_pages: int = 2):
    disk = DiskManager()
    memory = MemoryModel(
        ram_bytes=1024 * PAGE_SIZE,
        server_cache_bytes=server_pages * PAGE_SIZE,
        client_cache_bytes=client_pages * PAGE_SIZE,
        system_reserved_bytes=0,
    )
    return disk, ClientServerSystem(disk, memory)


class TestClientServerSystem:
    def test_cold_read_goes_to_disk(self):
        disk, system = small_system()
        fid = disk.create_file()
        disk.allocate_page(fid)
        system.get_page(fid, 0)
        c = disk.counters
        assert c.client_faults == 1
        assert c.server_faults == 1
        assert c.disk_reads == 1
        assert c.rpcs == 1
        assert c.server_to_client == 1

    def test_warm_read_hits_client_cache(self):
        disk, system = small_system()
        fid = disk.create_file()
        disk.allocate_page(fid)
        system.get_page(fid, 0)
        system.get_page(fid, 0)
        c = disk.counters
        assert c.client_hits == 1
        assert c.disk_reads == 1
        assert c.rpcs == 1

    def test_server_hit_after_client_eviction(self):
        # Client holds 1 page, server holds 4: page 0 falls out of the
        # client but survives in the server -> RPC but no disk read.
        disk, system = small_system(client_pages=1, server_pages=4)
        fid = disk.create_file()
        for __ in range(3):
            disk.allocate_page(fid)
        system.get_page(fid, 0)
        system.get_page(fid, 1)
        system.get_page(fid, 0)
        c = disk.counters
        assert c.disk_reads == 2
        assert c.server_hits == 1
        assert c.rpcs == 3

    def test_io_depends_on_largest_cache(self):
        """Paper §3.2: with one client, I/Os depend on the largest cache
        size, independently of its function."""
        def misses(client_pages, server_pages):
            disk, system = small_system(client_pages, server_pages)
            fid = disk.create_file()
            for __ in range(8):
                disk.allocate_page(fid)
            # cyclic access pattern over 8 pages, twice
            for __ in range(2):
                for no in range(8):
                    system.get_page(fid, no)
            return disk.counters.disk_reads

        assert misses(8, 2) == misses(2, 8) == 8
        assert misses(2, 2) == 16

    def test_random_access_miss_rate_tracks_cache_ratio(self):
        import random

        rng = random.Random(7)
        disk, system = small_system(client_pages=20, server_pages=2)
        fid = disk.create_file()
        n_pages = 100
        for __ in range(n_pages):
            disk.allocate_page(fid)
        for __ in range(4000):
            system.get_page(fid, rng.randrange(n_pages))
        snap = disk.counters.snapshot()
        # Expected steady-state miss rate ~ 1 - 20/100 = 0.8
        assert snap.client_miss_rate == pytest.approx(0.8, abs=0.05)

    def test_dirty_write_back_on_shutdown(self):
        disk, system = small_system()
        sfile = StorageFile(disk, system)
        fid = sfile.file_id
        disk.allocate_page(fid)
        sfile.insert(b"dirty data")
        system.shutdown()
        assert disk.counters.disk_writes >= 1
        assert len(system.client_cache._pages) == 0
        # All pages clean after flush.
        assert not disk.peek_page(fid, 0).dirty

    def test_restart_cold_charges_nothing(self):
        disk, system = small_system()
        sfile = StorageFile(disk, system)
        fid = sfile.file_id
        disk.allocate_page(fid)
        sfile.insert(b"data")
        disk.counters.reset()
        before = disk.clock.elapsed_s
        system.restart_cold()
        assert disk.clock.elapsed_s == before
        assert disk.counters.disk_writes == 0
        # And the next read is cold again.
        system.get_page(fid, 0)
        assert disk.counters.disk_reads == 1

    def test_dirty_eviction_cascades_to_disk(self):
        disk, system = small_system(client_pages=1, server_pages=1)
        sfile = StorageFile(disk, system)
        # Fill several pages with dirty data; caches of 1 page force
        # write-back cascades.
        for __ in range(200):
            sfile.insert(b"x" * 1000)
        system.flush()
        assert disk.counters.disk_writes >= sfile.num_pages - 1

    def test_sequential_scan_reads_each_page_once(self):
        disk, system = small_system(client_pages=4, server_pages=2)
        sfile = StorageFile(disk, system)
        rids = [sfile.insert(b"y" * 100) for __ in range(300)]
        system.restart_cold()
        disk.counters.reset()
        assert all(sfile.read(rid) == b"y" * 100 for rid in rids)
        assert disk.counters.disk_reads == sfile.num_pages
