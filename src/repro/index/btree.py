"""A B+-tree index with disk-resident leaves.

Leaves are records in an index :class:`~repro.storage.file.StorageFile`
(~330 entries each, about one page per leaf), so every leaf visited by a
lookup or range scan costs real simulated I/O — the "read index pages"
term of the paper's Figure 9.  The inner directory (first key of each
leaf) is kept in memory and charged as CPU compares, matching the paper's
working assumption that non-leaf levels are cached.

The index stores ``(key, rid)`` pairs; keys are 64-bit integers.
Leaves only hold object identifiers, never object properties — as the
paper's indexes do ("store only object identifiers in their leaves",
Section 5).

Beside each leaf it writes, the index keeps the record object it wrote
and the tuple of :class:`Rid` objects encoded into it, the leaf's *rid
column*.  Every leaf is still read through the storage file, but when
the record read back *is* the one the index wrote, the rids of a run are
a slice of that column: no rid is decoded or built per entry, and the
rids handed back are the very objects the index was given.  Any other
record (an older image a crash restored, a record this index did not
write) is decoded.
"""

from __future__ import annotations

import bisect
import math
import struct
from itertools import chain, starmap
from operator import itemgetter, le
from typing import Iterable, Iterator

from repro.errors import IndexError_
from repro.simtime import Bucket
from repro.storage.file import StorageFile
from repro.storage.rid import Rid, rid_of

_CPU = Bucket.CPU
_SORT = Bucket.SORT

#: Entries per leaf: 330 * (8 + 8) bytes ~ 5.2 KB... too big for a page;
#: with int keys an entry is 16 bytes, so 200 entries ~ 3.2 KB fits one
#: page with slack for splits.
LEAF_CAPACITY = 200

_COUNT = struct.Struct("<I")

#: A leaf entry is the 64-bit key, then the rid's three fields (file,
#: page, slot); a leaf is its entry count and the entries back to back,
#: so a whole leaf is one ``pack`` and one ``unpack``.
_KEY_CODE = "q"
_RID_CODES = "hih"
_ENTRY_FORMAT = _KEY_CODE + _RID_CODES
_ENTRY_SIZE = struct.calcsize("<" + _ENTRY_FORMAT)
#: One entry read for its key alone, or for its rid alone.
_KEY_FORMAT = f"{_KEY_CODE}{struct.calcsize('<' + _RID_CODES)}x"
_RID_FORMAT = f"{struct.calcsize('<' + _KEY_CODE)}x{_RID_CODES}"

#: The second field: the rid of a ``(key, rid)`` entry, and the rids of
#: the ``(keys, rids)`` run :meth:`BTreeIndex._leaf_runs` yields per leaf.
_SECOND = itemgetter(1)


class BTreeIndex:
    """B+-tree over one key attribute of one collection."""

    def __init__(self, name: str, index_id: int, index_file: StorageFile):
        if index_id < 1:
            raise IndexError_("index ids start at 1 (0 marks an empty slot)")
        self.name = name
        self.index_id = index_id
        self.file = index_file
        self.leaf_capacity = LEAF_CAPACITY
        #: Parallel arrays: first key of each leaf / (first key, first
        #: rid) pair of each leaf (placement among duplicate keys) / rid
        #: of the leaf record / number of entries in the leaf / the
        #: record last written to the leaf / the rids encoded into it.
        self._first_keys: list[object] = []
        self._first_pairs: list[tuple[object, Rid]] = []
        self._leaf_rids: list[Rid] = []
        self._leaf_counts: list[int] = []
        self._leaf_records: list[bytes] = []
        self._leaf_columns: list[tuple[Rid, ...]] = []
        self.entry_count = 0
        self._max_key: object | None = None
        #: Fraction of adjacent key-ordered entries that are also in
        #: physical (rid) order; 1.0 means a perfectly clustered index.
        self.clustering_ratio = 0.0
        #: Calls of :meth:`bulk_build` and :meth:`insert` so far: the
        #: statistics below move only with them (a planner's plans are
        #: kept while it stands still).
        self.mutations = 0

    # -- bulk build ----------------------------------------------------

    def bulk_build(self, pairs: Iterable[tuple[object, Rid]]) -> None:
        """(Re)build the tree from scratch.

        Sorting the pairs is charged to the clock; each leaf is written
        once, sequentially, into the index file.
        """
        self.mutations += 1
        items = sorted(pairs)  # by key, then rid: the pairs are the sort key
        self._charge_sort(len(items))
        self._first_keys.clear()
        self._first_pairs.clear()
        self._leaf_rids.clear()
        self._leaf_counts.clear()
        self._leaf_records.clear()
        self._leaf_columns.clear()
        self.entry_count = len(items)
        self._max_key = items[-1][0] if items else None
        for start in range(0, len(items), self.leaf_capacity):
            self._add_leaf(
                len(self._leaf_rids), items[start : start + self.leaf_capacity]
            )
        self.clustering_ratio = _clustering_ratio(items)

    # -- point / range access ------------------------------------------

    def lookup(self, key: object) -> list[Rid]:
        """All rids filed under ``key`` (keys need not be unique)."""
        return list(self.rid_scan(key, key))

    def range_scan(
        self,
        low: object | None = None,
        high: object | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[object, Rid]]:
        """The ``(key, rid)`` entries with ``low <= key <= high`` in key
        order, reading each visited leaf through the page caches -- and
        only once the entries of the leaf before it are consumed."""
        return chain.from_iterable(
            starmap(zip, self._leaf_runs(low, high, include_low, include_high))
        )

    def rid_scan(
        self,
        low: object | None = None,
        high: object | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Rid]:
        """The rids of :meth:`range_scan`'s entries, in the same order and
        with the same leaf reads, for a caller that drops the keys: no
        ``(key, rid)`` pair is built."""
        return chain.from_iterable(
            map(_SECOND, self._leaf_runs(low, high, include_low, include_high))
        )

    def _leaf_runs(
        self,
        low: object | None,
        high: object | None,
        include_low: bool,
        include_high: bool,
    ) -> Iterator[tuple[tuple[object, ...], Iterable[Rid]]]:
        """The matching run of each leaf a range scan visits, as its keys
        and its rids.  A leaf is sorted, so its run is one slice between
        two bisections of its keys.  The run's rids are a slice of the
        leaf's rid column when the record read back is the one this
        index wrote; otherwise only the run's rids are decoded.  The scan
        ends at the first leaf holding an entry past ``high``."""
        if not self._leaf_rids:
            return
        start_leaf = 0
        if low is not None:
            # bisect_left - 1: a run of duplicate keys can span leaves
            # whose first key all equal ``low``; the run may even begin
            # at the tail of the leaf before them.
            start_leaf = max(0, bisect.bisect_left(self._first_keys, low) - 1)
            self._charge_directory_search()
        cut_low = bisect.bisect_left if include_low else bisect.bisect_right
        cut_high = bisect.bisect_right if include_high else bisect.bisect_left
        for leaf_no in range(start_leaf, len(self._leaf_rids)):
            record = self.file.read(self._leaf_rids[leaf_no])
            (count,) = _COUNT.unpack_from(record)
            keys = struct.unpack_from(
                "<" + _KEY_FORMAT * count, record, _COUNT.size
            )
            start = 0 if low is None else cut_low(keys, low)
            stop = count if high is None else cut_high(keys, high, start)
            if record is self._leaf_records[leaf_no]:
                rids: Iterable[Rid] = self._leaf_columns[leaf_no][start:stop]
            else:
                fields = struct.unpack_from(
                    "<" + _RID_FORMAT * (stop - start),
                    record,
                    _COUNT.size + start * _ENTRY_SIZE,
                )
                rids = map(rid_of, zip(fields[0::3], fields[1::3], fields[2::3]))
            yield keys[start:stop], rids
            if stop < count:
                return

    # -- maintenance -----------------------------------------------------------

    def insert(self, key: object, rid: Rid) -> None:
        """Add one entry (splits the target leaf when full)."""
        self.mutations += 1
        if not self._leaf_rids:
            self._add_leaf(0, [(key, rid)])
            self.entry_count = 1
            self._max_key = key
            return
        leaf_no = self._placement_leaf(key, rid)
        entries = self._read_leaf(leaf_no)
        bisect.insort(entries, (key, rid))
        self.entry_count += 1
        if self._max_key is None or key > self._max_key:  # type: ignore[operator]
            self._max_key = key
        if len(entries) <= self.leaf_capacity:
            self._write_leaf(leaf_no, entries)
            self._leaf_counts[leaf_no] = len(entries)
        else:
            self._split_leaf(leaf_no, entries)

    # -- statistics for the optimizer ----------------------------------

    @property
    def leaf_count(self) -> int:
        return len(self._leaf_rids)

    def selectivity(self, low: object | None, high: object | None) -> float:
        """Estimated fraction of entries in [low, high], from the leaf
        directory (no I/O).

        Entry positions are interpolated *within* the boundary leaves
        using the leaf-boundary keys, so the estimate stays useful even
        for single-leaf indexes.
        """
        if self.entry_count == 0:
            return 0.0
        lo_pos = 0.0 if low is None else self._position(low)
        hi_pos = float(self.entry_count) if high is None else self._position(high)
        return max(0.0, min(1.0, (hi_pos - lo_pos) / self.entry_count))

    def _position(self, key: object) -> float:
        """Estimated number of entries with keys strictly below ``key``."""
        if not self._first_keys:
            return 0.0
        if key <= self._first_keys[0]:  # type: ignore[operator]
            return 0.0
        leaf = bisect.bisect_right(self._first_keys, key) - 1
        before = float(sum(self._leaf_counts[:leaf]))
        count = self._leaf_counts[leaf]
        lo_key = self._first_keys[leaf]
        hi_key = (
            self._first_keys[leaf + 1]
            if leaf + 1 < len(self._first_keys)
            else self._max_key
        )
        if (
            isinstance(key, (int, float))
            and isinstance(lo_key, (int, float))
            and isinstance(hi_key, (int, float))
            and hi_key > lo_key
        ):
            fraction = min(1.0, (key - lo_key) / (hi_key - lo_key))
        else:
            fraction = 0.5
        return before + fraction * count

    # -- internals --------------------------------------------------------

    def _encode_leaf(self, entries: list[tuple[object, Rid]]) -> bytes:
        if not entries:
            return _COUNT.pack(0)
        keys, rids = zip(*entries)  # columns, then rows of four fields
        rows = zip(keys, *zip(*rids))
        return struct.pack(
            "<I" + _ENTRY_FORMAT * len(entries),
            len(entries),
            *chain.from_iterable(rows),
        )

    def _decode_leaf(self, record: bytes) -> list[tuple[object, Rid]]:
        (count,) = _COUNT.unpack_from(record, 0)
        # struct.error if the record is shorter than its count says
        fields = struct.unpack_from(
            "<" + _ENTRY_FORMAT * count, record, _COUNT.size
        )
        rids = map(rid_of, zip(fields[1::4], fields[2::4], fields[3::4]))
        return list(zip(fields[0::4], rids))

    def _read_leaf(self, leaf_no: int) -> list[tuple[object, Rid]]:
        """The entries of leaf ``leaf_no``, read through the storage
        file; a record this index wrote pairs its keys with the leaf's
        rid column, so a rewrite keeps the rids it was given."""
        record = self.file.read(self._leaf_rids[leaf_no])
        if record is not self._leaf_records[leaf_no]:
            return self._decode_leaf(record)
        (count,) = _COUNT.unpack_from(record)
        keys = struct.unpack_from(
            "<" + _KEY_FORMAT * count, record, _COUNT.size
        )
        return list(zip(keys, self._leaf_columns[leaf_no]))

    def _placement_leaf(self, key: object, rid: Rid) -> int:
        """Leaf where the (key, rid) pair belongs under global
        (key, rid) ordering — correct even when one key value spans
        several leaves."""
        self._charge_directory_search()
        return max(0, bisect.bisect_right(self._first_pairs, (key, rid)) - 1)

    def _add_leaf(self, leaf_no: int, entries: list[tuple[object, Rid]]) -> None:
        """Append a new leaf record holding ``entries`` (not empty) to the
        index file and file it as leaf ``leaf_no``."""
        record = self._encode_leaf(entries)
        self._leaf_rids.insert(leaf_no, self.file.insert(record))
        self._leaf_records.insert(leaf_no, record)
        self._leaf_columns.insert(leaf_no, tuple(map(_SECOND, entries)))
        self._first_keys.insert(leaf_no, entries[0][0])
        self._first_pairs.insert(leaf_no, entries[0])
        self._leaf_counts.insert(leaf_no, len(entries))

    def _write_leaf(self, leaf_no: int, entries: list[tuple[object, Rid]]) -> None:
        record = self._encode_leaf(entries)
        self._leaf_rids[leaf_no] = self.file.update(self._leaf_rids[leaf_no], record)
        self._leaf_records[leaf_no] = record
        self._leaf_columns[leaf_no] = tuple(map(_SECOND, entries))
        if entries:
            self._first_keys[leaf_no] = entries[0][0]
            self._first_pairs[leaf_no] = entries[0]

    def _split_leaf(self, leaf_no: int, entries: list[tuple[object, Rid]]) -> None:
        mid = len(entries) // 2
        left, right = entries[:mid], entries[mid:]
        self._write_leaf(leaf_no, left)
        self._leaf_counts[leaf_no] = len(left)
        self._add_leaf(leaf_no + 1, right)

    def _charge_sort(self, n: int) -> None:
        if n < 2:
            return
        disk = self.file.disk
        disk.clock.charge_us(_SORT, disk.params.sort_us(n))

    def _charge_directory_search(self) -> None:
        depth = max(1, math.ceil(math.log2(len(self._first_keys) + 1)))
        self.file.disk.clock.charge_us(
            _CPU, self.file.disk.params.compare_us * depth
        )


def _clustering_ratio(sorted_items: list[tuple[object, Rid]]) -> float:
    """Fraction of adjacent key-ordered pairs that are also rid-ordered.

    1.0 means scanning the index visits pages sequentially (a *clustered*
    index in the paper's vocabulary); ~0.5 means the key is random with
    respect to physical placement (the paper's ``num`` attribute).
    """
    if len(sorted_items) < 2:
        return 1.0
    rids = [rid for __, rid in sorted_items]
    return sum(map(le, rids, rids[1:])) / (len(rids) - 1)
