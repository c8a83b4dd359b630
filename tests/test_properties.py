"""Cross-module property-based tests (hypothesis)."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferCache, ClientServerSystem
from repro.derby.lrand48 import Lrand48
from repro.exec.sorter import sort_charged
from repro.objects import AttributeDef, AttrKind, Database, Schema
from repro.objects.codec import InlineSet, RecordCodec
from repro.objects.header import ObjectHeader
from repro.simtime import Bucket, CostParams, MemoryModel, SimClock
from repro.storage import DiskManager, Rid
from repro.units import PAGE_SIZE


# ------------------------------------------------------------- buffer

class TestBufferModel:
    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=19), min_size=1, max_size=300
        ),
        cache_pages=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=50, deadline=None)
    def test_lru_matches_reference_model(self, accesses, cache_pages):
        """The two-tier system with an over-sized server cache must show
        exactly the client-LRU miss sequence of a textbook model."""
        disk = DiskManager()
        fid = disk.create_file()
        for __ in range(20):
            disk.allocate_page(fid)
        memory = MemoryModel(
            ram_bytes=1000 * PAGE_SIZE,
            server_cache_bytes=40 * PAGE_SIZE,   # big: absorbs everything
            client_cache_bytes=cache_pages * PAGE_SIZE,
            system_reserved_bytes=0,
        )
        system = ClientServerSystem(disk, memory)

        # Reference LRU model.
        reference_misses = 0
        lru: list[int] = []
        for page_no in accesses:
            if page_no in lru:
                lru.remove(page_no)
            else:
                reference_misses += 1
                if len(lru) >= cache_pages:
                    lru.pop(0)
            lru.append(page_no)

        for page_no in accesses:
            system.get_page(fid, page_no)
        assert disk.counters.client_faults == reference_misses

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200)
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_never_exceeds_capacity(self, accesses):
        cache = BufferCache(7)
        from repro.storage.page import Page

        pages = {no: Page(0, no) for no in set(accesses)}
        for no in accesses:
            cache.insert(pages[no])
            assert len(cache) <= 7


# ------------------------------------------------------------- codec

_VALUE_STRATEGY = st.fixed_dictionaries(
    {
        "name": st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=16,
        ),
        "mrn": st.integers(min_value=-(2**31), max_value=2**31 - 1),
        "score": st.floats(allow_nan=False, allow_infinity=False, width=32),
        "flag": st.booleans(),
        "friends": st.lists(
            st.builds(
                Rid,
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=20,
        ),
    }
)


class TestCodecProperties:
    def make_codec(self):
        schema = Schema()
        cls = schema.define(
            "Fuzz",
            [
                AttributeDef("name", AttrKind.STRING),
                AttributeDef("mrn", AttrKind.INT32),
                AttributeDef("score", AttrKind.REAL64),
                AttributeDef("flag", AttrKind.BOOL),
                AttributeDef("friends", AttrKind.REF_SET),
            ],
        )
        return RecordCodec(cls), cls

    @given(values=_VALUE_STRATEGY, indexed=st.booleans())
    @settings(max_examples=100)
    def test_roundtrip(self, values, indexed):
        codec, cls = self.make_codec()
        header = ObjectHeader.for_new_object(cls.class_id, indexed)
        encoded = dict(values, friends=InlineSet(tuple(values["friends"])))
        record = codec.encode(header, encoded)
        decoded = codec.decode(record)
        assert decoded["mrn"] == values["mrn"]
        assert decoded["flag"] == values["flag"]
        assert decoded["score"] == pytest.approx(values["score"], rel=1e-6)
        assert decoded["friends"].rids == tuple(values["friends"])
        assert decoded["name"] == values["name"].encode("utf-8")[:16].rstrip(
            b"\x00"
        ).decode("utf-8", "replace")

    @given(values=_VALUE_STRATEGY)
    @settings(max_examples=50)
    def test_single_attr_equals_full_decode(self, values):
        codec, cls = self.make_codec()
        header = ObjectHeader.for_new_object(cls.class_id, True)
        encoded = dict(values, friends=InlineSet(tuple(values["friends"])))
        record = codec.encode(header, encoded)
        full = codec.decode(record)
        for attr in ("name", "mrn", "score", "flag", "friends"):
            assert codec.decode_attr(record, attr) == full[attr]

    @given(values=_VALUE_STRATEGY, slot_count=st.sampled_from([0, 1, 3]))
    @settings(max_examples=100)
    def test_compiled_readers_equal_full_decode(self, values, slot_count):
        """Whatever the values and however many index slots push the
        payload along, each attribute's compiled reader, ``decode_attr``
        and the full ``decode`` return the same thing -- and it is what
        was encoded."""
        codec, cls = self.make_codec()
        header = ObjectHeader(cls.class_id, slot_count=slot_count)
        friends = InlineSet(tuple(values["friends"]))
        record = codec.encode(header, dict(values, friends=friends))
        full = codec.decode(record)
        assert list(codec.readers) == list(full)
        for name, read in codec.readers.items():
            assert read(record) == full[name] == codec.decode_attr(record, name)
        assert (full["mrn"], full["flag"], full["friends"]) == (
            values["mrn"], values["flag"], friends,
        )


# ------------------------------------------------------------- collections

class TestCollectionProperties:
    @given(n=st.integers(min_value=0, max_value=1300))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    def test_roundtrip_across_chunk_boundaries(self, n):
        schema = Schema()
        schema.define("T", [AttributeDef("x", AttrKind.INT32)])
        db = Database(schema)
        db.create_file("t")
        coll = db.new_collection()
        rids = [db.create_object("T", {"x": i}, "t") for i in range(n)]
        coll.extend(rids)
        assert list(coll.iter_rids()) == rids
        assert len(coll) == n


# ------------------------------------------------------------- clock / sort

class TestClockProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Bucket)),
                st.floats(min_value=0, max_value=1e6),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_elapsed_is_sum_of_buckets(self, charges):
        clock = SimClock()
        for bucket, us in charges:
            clock.charge_us(bucket, us)
        assert clock.elapsed_s == pytest.approx(
            sum(clock.breakdown().values())
        )
        assert clock.elapsed_s >= 0

    def test_negative_charge_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.charge_ms(Bucket.IO, -1)

    @given(st.lists(st.integers(), max_size=200))
    @settings(max_examples=50)
    def test_sort_charged_sorts_and_charges(self, items):
        clock = SimClock()
        result = sort_charged(list(items), clock, CostParams())
        assert result == sorted(items)
        if len(items) > 1:
            assert clock.bucket_s(Bucket.SORT) > 0


# ------------------------------------------------------------- lrand48

class TestLrand48Properties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_matches_direct_lcg(self, seed):
        rng = Lrand48(seed)
        x = (((seed & 0xFFFFFFFF) << 16) | 0x330E) & ((1 << 48) - 1)
        for __ in range(5):
            x = (0x5DEECE66D * x + 0xB) & ((1 << 48) - 1)
            assert rng.lrand48() == x >> 17


# ------------------------------------------------------------- joins

class TestJoinEquivalenceProperty:
    @given(
        n_providers=st.integers(min_value=2, max_value=12),
        n_patients=st.integers(min_value=4, max_value=120),
        sel_pat=st.integers(min_value=1, max_value=100),
        sel_prov=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=12, deadline=None)
    def test_all_algorithms_agree(
        self, n_providers, n_patients, sel_pat, sel_prov, seed
    ):
        """On arbitrary tiny databases, all six algorithms return the
        same multiset of rows."""
        from repro.cluster import load_derby
        from repro.derby import DerbyConfig
        from repro.derby.config import Clustering
        from repro.exec import ALGORITHMS, TreeJoinQuery

        clustering = random.Random(seed).choice(list(Clustering))
        config = DerbyConfig(
            n_providers=n_providers,
            n_patients=n_patients,
            clustering=clustering,
            seed=seed,
            scale=0.001,
            params=CostParams().scaled(0.001),
        )
        derby = load_derby(config)
        query = TreeJoinQuery(
            db=derby.db,
            parent_index=derby.by_upin,
            child_index=derby.by_mrn,
            parent_high=config.upin_threshold(sel_prov),
            child_high=config.mrn_threshold(sel_pat),
            n_parents=n_providers,
        )
        results = {}
        for name, algo in ALGORITHMS.items():
            derby.start_cold_run()
            results[name] = sorted(algo(query))
        baseline = results.pop("PHJ")
        for name, rows in results.items():
            assert rows == baseline, f"{name} disagrees with PHJ"
