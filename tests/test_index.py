"""Unit tests for the B+-tree index and the index manager."""

from __future__ import annotations

import bisect
import itertools
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateIndexError, IndexError_
from repro.index import BTreeIndex, IndexManager
from repro.index.btree import LEAF_CAPACITY
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.objects.header import ObjectHeader
from repro.storage.rid import Rid


def remove_entry(index: BTreeIndex, key, rid: Rid) -> bool:
    """Take one (key, rid) entry out of ``index``; returns whether it was
    there.  No workload deletes, so only tests empty a leaf."""
    if not index._leaf_rids:
        return False
    leaf_no = index._placement_leaf(key, rid)
    entries = index._read_leaf(leaf_no)
    if (key, rid) not in entries:
        return False
    entries.remove((key, rid))
    index.entry_count -= 1
    index._write_leaf(leaf_no, entries)
    index._leaf_counts[leaf_no] = len(entries)
    return True


def simple_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("num", AttrKind.INT32),
        ],
    )
    return schema


def make_db() -> Database:
    db = Database(simple_schema())
    db.create_file("patients")
    return db


def make_index(
    db: Database, name: str = "idx", leaf_capacity: int = LEAF_CAPACITY
) -> BTreeIndex:
    index_file = db.create_file(f"__file_{name}__")
    index = BTreeIndex(name, 1, index_file)
    index.leaf_capacity = leaf_capacity
    return index


# ------------------------------------------------------------- BTreeIndex

class TestBTreeBulk:
    def test_bulk_build_and_lookup(self):
        db = make_db()
        index = make_index(db)
        pairs = [(i, Rid(0, i // 10, i % 10)) for i in range(1000)]
        index.bulk_build(pairs)
        assert index.entry_count == 1000
        assert index.lookup(500) == [Rid(0, 50, 0)]
        assert index.lookup(5000) == []

    def test_duplicate_keys(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(7, Rid(0, 0, 0)), (7, Rid(0, 0, 1)), (8, Rid(0, 0, 2))])
        assert index.lookup(7) == [Rid(0, 0, 0), Rid(0, 0, 1)]

    def test_range_scan_in_key_order(self):
        db = make_db()
        index = make_index(db)
        shuffled = list(range(500))
        random.Random(3).shuffle(shuffled)
        index.bulk_build([(k, Rid(0, k, 0)) for k in shuffled])
        keys = [key for key, __ in index.range_scan(100, 199)]
        assert keys == list(range(100, 200))

    def test_range_scan_exclusive_bounds(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(10)])
        keys = [
            key
            for key, __ in index.range_scan(
                2, 5, include_low=False, include_high=False
            )
        ]
        assert keys == [3, 4]

    def test_open_ended_scans(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(100)])
        assert len(list(index.range_scan(None, 9))) == 10
        assert len(list(index.range_scan(90, None))) == 10
        assert len(list(index.range_scan())) == 100

    def test_leaf_reads_charge_io(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(2000)])
        db.restart_cold()
        db.reset_meters()
        list(index.range_scan())
        assert db.counters.disk_reads >= index.leaf_count // 2

    def test_index_id_zero_rejected(self):
        db = make_db()
        index_file = db.create_file("__f__")
        with pytest.raises(IndexError_):
            BTreeIndex("x", 0, index_file)

    def test_clustering_ratio_sequential_vs_random(self):
        db = make_db()
        clustered = make_index(db, "cl")
        clustered.bulk_build([(k, Rid(0, k, 0)) for k in range(1000)])
        assert clustered.clustering_ratio == pytest.approx(1.0)

        rng = random.Random(11)
        positions = list(range(1000))
        rng.shuffle(positions)
        unclustered = make_index(db, "uncl")
        unclustered.bulk_build([(k, Rid(0, positions[k], 0)) for k in range(1000)])
        assert unclustered.clustering_ratio == pytest.approx(0.5, abs=0.1)

    def test_selectivity_estimate(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(10000)])
        assert index.selectivity(None, 999) == pytest.approx(0.1, abs=0.05)
        assert index.selectivity(None, None) == 1.0
        assert index.selectivity(20000, None) <= 0.05


class TestBTreeIncremental:
    def test_insert_then_lookup(self):
        db = make_db()
        index = make_index(db)
        for k in [5, 1, 9, 3, 7]:
            index.insert(k, Rid(0, k, 0))
        assert [key for key, __ in index.range_scan()] == [1, 3, 5, 7, 9]

    def test_insert_below_current_minimum(self):
        db = make_db()
        index = make_index(db)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(10, 20)])
        index.insert(1, Rid(0, 1, 0))
        assert [key for key, __ in index.range_scan()][0] == 1

    def test_splits_keep_order(self):
        db = make_db()
        index = make_index(db)
        keys = list(range(1000))
        random.Random(5).shuffle(keys)
        for k in keys:
            index.insert(k, Rid(0, k, 0))
        assert [key for key, __ in index.range_scan()] == list(range(1000))
        assert index.leaf_count > 1

    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_sorted_reference(self, keys):
        db = make_db()
        index = make_index(db)
        reference = []
        for i, k in enumerate(keys):
            rid = Rid(0, i, 0)
            index.insert(k, rid)
            reference.append((k, rid))
        reference.sort()
        scanned = list(index.range_scan())
        assert scanned == reference


# ------------------------------------------- range scan == brute force

def brute_force_scan(first_keys, leaves, low, high, include_low, include_high):
    """The per-entry filter the bisected scan replaced, over leaves
    decoded beforehand: the matching pairs and how many leaves it looked
    at before an entry past ``high`` ended it."""
    pairs: list = []
    visited = 0
    start = 0
    if low is not None:
        start = max(0, bisect.bisect_left(first_keys, low) - 1)
    for entries in leaves[start:]:
        visited += 1
        for key, rid in entries:
            if low is not None and (
                key < low or (key == low and not include_low)
            ):
                continue
            if high is not None and (
                key > high or (key == high and not include_high)
            ):
                return pairs, visited
            pairs.append((key, rid))
    return pairs, visited


def assert_scans_like_brute_force(db, index, bounds) -> None:
    """Every ``(low, high)`` drawn from ``bounds`` (and absent), under
    every inclusion pair: same pairs, same number of leaves read."""
    leaves = [index._read_leaf(n) for n in range(index.leaf_count)]
    counters = db.counters
    for low, high, include_low, include_high in itertools.product(
        [None, *bounds], [None, *bounds], (True, False), (True, False)
    ):
        expected, visited = brute_force_scan(
            index._first_keys, leaves, low, high, include_low, include_high
        )
        before = counters.client_hits + counters.client_faults
        scanned = list(index.range_scan(low, high, include_low, include_high))
        leaf_reads = counters.client_hits + counters.client_faults - before
        where = (low, high, include_low, include_high)
        assert scanned == expected, where
        assert leaf_reads == visited, where


class TestRangeScanEquivalence:
    def test_duplicate_runs_spanning_three_leaves(self):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        keys = [1, 1, 3] + [5] * 11 + [7, 7, 8, 9, 9, 9]
        index.bulk_build([(k, Rid(0, i, 0)) for i, k in enumerate(keys)])
        runs = [leaf for leaf in range(index.leaf_count)
                if {k for k, __ in index._read_leaf(leaf)} == {5}]
        assert len(runs) >= 2 and index._first_keys.count(5) >= 2
        assert_scans_like_brute_force(db, index, range(0, 11))

    def test_a_bound_equal_to_a_leafs_last_key(self):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        index.bulk_build([(k, Rid(0, k, 0)) for k in range(0, 40, 2)])
        last_keys = [index._read_leaf(n)[-1][0] for n in range(index.leaf_count)]
        assert last_keys[:2] == [6, 14]
        assert_scans_like_brute_force(db, index, [5, 6, 7, 8, 14, 15, 38, 39])
        # The scan that ends exactly on a leaf's last key must look at
        # the next leaf to know it is over; one short of it need not.
        before = db.counters.client_hits + db.counters.client_faults
        assert [k for k, __ in index.range_scan(None, 6)] == [0, 2, 4, 6]
        assert [k for k, __ in index.range_scan(None, 6, include_high=False)] == [0, 2, 4]
        reads = db.counters.client_hits + db.counters.client_faults - before
        assert reads == 2 + 1

    def test_leaves_emptied_by_remove(self):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        pairs = [(k, Rid(0, k, 0)) for k in range(16)]
        index.bulk_build(pairs)
        for key, rid in pairs[:4] + pairs[8:12]:  # the first and third leaf
            assert remove_entry(index, key, rid)
        assert index._leaf_counts == [0, 4, 0, 4]
        assert_scans_like_brute_force(db, index, range(-1, 17))

    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=60),
        st.lists(st.integers(min_value=0, max_value=59), max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_after_inserts_and_removes(self, keys, removals):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        pairs = [(k, Rid(0, i, 0)) for i, k in enumerate(keys)]
        for key, rid in pairs:
            index.insert(key, rid)
        for position in removals:
            if position < len(pairs):
                remove_entry(index, *pairs[position])  # a second removal is a no-op
        assert_scans_like_brute_force(db, index, range(-1, 14))

    # The scan decodes a leaf's keys, then only the rids of its run, at
    # an offset into the record: the cases below put a run's ends where
    # that offset arithmetic could slip.

    def test_a_duplicate_run_crossing_an_emptied_leaf(self):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        keys = [1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5]
        pairs = [(k, Rid(0, i, 0)) for i, k in enumerate(keys)]
        index.bulk_build(pairs)
        for pair in pairs[4:8]:  # the middle leaf: all 3s
            assert remove_entry(index, *pair)
        assert index._leaf_counts == [4, 0, 4]
        assert [rid.page_no for rid in index.lookup(3)] == [2, 3, 8, 9]
        assert_scans_like_brute_force(db, index, range(0, 7))

    def test_a_run_from_mid_leaf_to_its_last_entry(self):
        db = make_db()
        index = make_index(db, leaf_capacity=5)
        pairs = [(k, Rid(1, 100 + k, k % 3)) for k in range(15)]
        index.bulk_build(pairs)
        # Keys 2-4 close the first leaf, 7-9 the second: the run starts
        # inside the record and ends at its last byte.
        assert list(index.range_scan(2, 4)) == pairs[2:5]
        assert list(index.range_scan(6, 9, include_low=False)) == pairs[7:10]
        assert list(index.range_scan(12, None)) == pairs[12:]
        assert_scans_like_brute_force(db, index, [1, 2, 4, 5, 6, 9, 10, 14])

    @pytest.mark.parametrize("include_low", (True, False))
    @pytest.mark.parametrize("include_high", (True, False))
    def test_a_duplicate_run_over_three_leaves(self, include_low, include_high):
        db = make_db()
        index = make_index(db, leaf_capacity=4)
        # 7 starts mid-leaf in the first leaf, fills the second and ends
        # mid-leaf in the third.
        keys = [5, 6, 7, 7, 7, 7, 7, 7, 7, 8, 9, 9]
        pairs = [(k, Rid(2, i, i)) for i, k in enumerate(keys)]
        index.bulk_build(pairs)
        assert [k for k, __ in index._first_pairs] == [5, 7, 7]
        sevens = pairs[2:9]
        both = include_low and include_high
        assert list(index.range_scan(
            7, 7, include_low, include_high
        )) == (sevens if both else [])
        assert list(index.range_scan(
            6, 8, include_low, include_high
        )) == pairs[1 if include_low else 2:10 if include_high else 9]
        assert_scans_like_brute_force(db, index, range(4, 11))


def leaf_page(index: BTreeIndex, leaf_no: int):
    """The page holding leaf ``leaf_no``, and the leaf's slot on it."""
    file_id, page_no, slot = index._leaf_rids[leaf_no]
    return index.file.disk.peek_page(file_id, page_no), slot


def test_a_range_scan_decodes_only_the_rids_it_returns(monkeypatch):
    """Over leaves the index wrote, a scan unpacks no rid at all: the
    rids come from the column written beside the leaf.  Over an
    equal-content copy it did not write, a 10-entry range inside a full
    leaf unpacks 10 rids, not 200."""
    import repro.index.btree as btree

    db = make_db()
    index = make_index(db)
    index.bulk_build([(k, Rid(0, k, 0)) for k in range(200)])
    assert index.leaf_count == 1
    rids_unpacked = []

    def unpack_from(fmt, buffer, offset=0):
        fields = struct.unpack_from(fmt, buffer, offset)
        rids_unpacked.append(fmt.count("hih"))
        return fields

    monkeypatch.setattr(btree, "struct", SimpleNamespace(
        unpack_from=unpack_from, pack=struct.pack, calcsize=struct.calcsize
    ))
    assert index.lookup(50) == [Rid(0, 50, 0)]
    scanned = list(index.range_scan(100, 110, include_high=False))
    assert [k for k, __ in scanned] == list(range(100, 110))
    assert sum(rids_unpacked) == 0

    page, slot = leaf_page(index, 0)
    written = page.read(slot)
    copy = bytes(bytearray(written))
    assert copy == written and copy is not written
    assert page.replace(slot, written, copy)
    assert list(index.range_scan(100, 110, include_high=False)) == scanned
    assert sum(rids_unpacked) == 10


def test_a_scan_trusts_the_rid_column_only_for_the_record_it_wrote():
    """A leaf page rolled back to an older record (as a crash restores a
    durable image) is scanned for what it holds, not for the rid column
    of the index's later write."""
    db = make_db()
    index = make_index(db)
    pairs = [(k, Rid(0, k, 0)) for k in range(0, 20, 2)]
    index.bulk_build(pairs)
    page, slot = leaf_page(index, 0)
    older = page.capture()
    written = page.read(slot)
    index.insert(7, Rid(0, 7, 0))
    assert page.read(slot) is not written  # the leaf was rewritten
    assert index.lookup(7) == [Rid(0, 7, 0)]
    page.restore(older)
    assert page.read(slot) is written
    assert list(index.range_scan()) == pairs
    assert index.lookup(7) == []


# ------------------------------------------------------------- IndexManager

#: An index id no :class:`IndexManager` here hands out.
UNRELATED_INDEX_ID = 999


def populate(db: Database, n: int = 300, indexed: bool = False):
    coll = db.new_collection("Patients")
    rng = random.Random(1)
    for i in range(n):
        rid = db.create_object(
            "Patient",
            {"name": f"p{i}", "mrn": i, "num": rng.randrange(n)},
            "patients",
            # A member of an index created before the load: its header
            # has a block of slots.
            (UNRELATED_INDEX_ID,) if indexed else (),
        )
        coll.append(rid)
    coll.flush()
    return coll


class TestIndexManager:
    def test_create_index_after_population(self):
        db = make_db()
        coll = populate(db)
        manager = IndexManager(db)
        index, report = manager.create_index("by_mrn", coll, "mrn")
        assert report.entries == 300
        assert report.headers_rewritten == 300
        assert report.headers_grown == 300  # objects had no slots
        assert index.lookup(42) != []

    def test_first_index_on_unindexed_objects_moves_records(self):
        """Paper §3.2: indexing after load reallocates objects on disk."""
        db = make_db()
        coll = populate(db, indexed=False)
        manager = IndexManager(db)
        __, report = manager.create_index("by_mrn", coll, "mrn")
        assert report.records_moved > 0

    def test_preallocated_slots_avoid_moves(self):
        db = make_db()
        coll = populate(db, indexed=True)
        manager = IndexManager(db)
        __, report = manager.create_index("by_mrn", coll, "mrn")
        assert report.headers_grown == 0
        assert report.records_moved == 0

    def test_duplicate_index_name_rejected(self):
        db = make_db()
        coll = populate(db)
        manager = IndexManager(db)
        manager.create_index("by_mrn", coll, "mrn")
        with pytest.raises(DuplicateIndexError):
            manager.create_index("by_mrn", coll, "mrn")

    def test_headers_record_membership(self):
        db = make_db()
        coll = populate(db, n=50)
        manager = IndexManager(db)
        index, __ = manager.create_index("by_mrn", coll, "mrn")
        some_rid = next(iter(coll.iter_rids()))
        record, __cls = db.manager.read_record(some_rid)
        header = ObjectHeader.decode(record)
        assert index.index_id in header.index_ids

    def test_second_index_reuses_slots(self):
        db = make_db()
        coll = populate(db, n=100)
        manager = IndexManager(db)
        manager.create_index("by_mrn", coll, "mrn")
        moved_before = db.counters.records_moved
        __, report = manager.create_index("by_num", coll, "num")
        assert report.headers_grown == 0
        assert db.counters.records_moved == moved_before

    def test_moved_records_are_indexed_at_new_rid(self):
        db = make_db()
        coll = populate(db, n=200, indexed=False)
        manager = IndexManager(db)
        index, report = manager.create_index("by_mrn", coll, "mrn")
        assert report.records_moved > 0
        # Every indexed rid must resolve to a record with the right key.
        for key, rid in index.range_scan():
            record, class_def = db.manager.read_record(rid)
            codec = db.manager.codec(class_def)
            assert codec.decode_attr(record, "mrn") == key
