"""Memory-accounted query hash tables.

Figure 10 of the paper approximates the hash-table sizes of PHJ and CHJ
and predicts where swapping starts.  Reverse-engineering its numbers
gives the exact size model:

* **PHJ**: 64 bytes per *selected parent* (key + parent information),
* **CHJ**: 60 bytes per parent *in the domain* (the bucket directory is
  allocated over all parents) plus 8 bytes per selected child.

(Check: 10⁶ providers at 90% → 0.9 × 10⁶ × 64 B = 57.6 MB, Figure 10's
PHJ row; 60 MB + 2.7 × 10⁶ × 8 B = 81.6 MB, its last CHJ row.)

When the table outgrows the query memory budget the OS pages it; every
subsequent insert or probe touches a random table page, so the *expected*
penalty per operation is ``swap_fault_ms`` times the swapped-out
fraction.  That expected cost is charged deterministically — no RNG in
the measured path.

The running table keeps its size as a running integer rather than
re-deriving it per touch: the fixed part at construction, the entry's
bytes added *before* an insert is charged, a new key's bucket bytes
*after* it.  That is the order the size formula sees -- the entry being
inserted counted, the bucket it is about to materialize not yet -- so
every swap charge is the one the formula would give.
"""

from __future__ import annotations

from typing import Iterable

from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.units import MS_PER_S, US_PER_S

#: Bytes per selected parent in a PHJ table (key + information).
PHJ_ENTRY_BYTES = 64
#: Bytes per domain parent in a CHJ table (preallocated bucket).
CHJ_BUCKET_BYTES = 60
#: Bytes per selected child payload in a CHJ table.
CHJ_CHILD_BYTES = 8


def phj_table_bytes(selected_parents: int) -> int:
    """Figure 10's size model for the hash-the-parents table."""
    return selected_parents * PHJ_ENTRY_BYTES


def chj_table_bytes(domain_parents: int, selected_children: int) -> int:
    """Figure 10's size model for the hash-the-children table.

    This is the paper's *approximation* — it charges a bucket for every
    parent in the domain.  The running table (below) only materializes
    buckets that receive children, which is why the paper's measurements
    show CHJ behaving well at low child selectivity in the 1:3 case even
    though Figure 10 declares its table "too large ... whatever the
    selectivity".
    """
    return domain_parents * CHJ_BUCKET_BYTES + selected_children * CHJ_CHILD_BYTES


class QueryHashTable:
    """A hash table whose memory footprint is modeled explicitly."""

    def __init__(
        self,
        clock: SimClock,
        params: CostParams,
        counters: CounterSet,
        entry_bytes: int,
        fixed_bytes: int = 0,
        bucket_bytes: int = 0,
        budget_bytes: int | None = None,
    ):
        if entry_bytes < 0 or fixed_bytes < 0 or bucket_bytes < 0:
            raise ValueError("entry/fixed/bucket bytes must be non-negative")
        self.clock = clock
        self.params = params
        self.counters = counters
        self.entry_bytes = entry_bytes
        self.fixed_bytes = fixed_bytes
        self.bucket_bytes = bucket_bytes
        self.budget_bytes = (
            params.memory.query_memory_bytes if budget_bytes is None else budget_bytes
        )
        self._table: dict[object, list[object]] = {}
        self._entries = 0
        #: ``table_bytes``, kept current by :meth:`insert`.
        self._bytes = fixed_bytes
        self._swap_accum = 0.0

    # -- size / swap model ------------------------------------------------

    @property
    def table_bytes(self) -> int:
        """Fixed part + per-entry payload + one bucket header per
        *distinct* key (buckets materialize lazily)."""
        return self._bytes

    @property
    def entries(self) -> int:
        return self._entries

    @property
    def swapped_fraction(self) -> float:
        """Fraction of the table currently paged out."""
        size = self._bytes
        if size <= self.budget_bytes or size == 0:
            return 0.0
        return (size - self.budget_bytes) / size

    def _charge_touch(self, base_us: float) -> None:
        """One insert or probe: its CPU price, plus the expected fault on
        the swapped-out fraction of the table (``swapped_fraction``,
        inline -- a table that fits pays one add)."""
        buckets = self.clock.buckets
        buckets[Bucket.CPU] += base_us / US_PER_S
        size = self._bytes
        if size > self.budget_bytes and size:
            fraction = (size - self.budget_bytes) / size
            buckets[Bucket.SWAP] += (
                self.params.swap_fault_ms * fraction / MS_PER_S
            )
            self._swap_accum += fraction
            faults = int(self._swap_accum)
            if faults:
                self.counters.swap_faults += faults
                self._swap_accum -= faults

    # -- operations -----------------------------------------------------

    def insert(self, key: object, payload: object) -> None:
        self._entries += 1
        self._bytes += self.entry_bytes
        self._charge_touch(self.params.hash_insert_us)
        bucket = self._table.get(key)
        if bucket is None:
            self._table[key] = [payload]
            self._bytes += self.bucket_bytes
        else:
            bucket.append(payload)

    def probe(self, key: object) -> object | None:
        """First payload under ``key`` or ``None`` (PHJ keys are unique)."""
        self._charge_touch(self.params.hash_probe_us)
        bucket = self._table.get(key)
        return bucket[0] if bucket else None

    def probe_all(self, key: object) -> Iterable[object]:
        """Every payload under ``key`` (CHJ groups children per parent)."""
        self._charge_touch(self.params.hash_probe_us)
        return self._table.get(key, ())

    def __contains__(self, key: object) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)
