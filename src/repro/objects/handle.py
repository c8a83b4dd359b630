"""In-memory object representatives: O2's *Handles*.

Section 4.4 of the paper lists what a Handle carries: a pointer to the
object (in memory or on disk), status flags, a pointer to the shared
type-information structure, the list of indexes containing the object,
the count of pointers to the in-memory structure, a version pointer, and
schema-update history — "all in all, the structure takes 60 Bytes of
memory that have to be allocated, updated and freed whenever necessary".

The paper's diagnosis is that this traffic dominates cold associative
scans, and its proposed cures are a class hierarchy of handles (compact
handles for literals), no handles at all for fixed-size tuple literals,
and bulk allocation.  :class:`HandleMode` switches between O2-as-measured
and each cure, so the Section 4.4 ablation is a one-argument change.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable

from repro.errors import HandleError
from repro.objects.model import ClassDef
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.rid import Rid
from repro.units import US_PER_S

_HANDLE = Bucket.HANDLE

#: Fraction of the allocation cost charged when an existing handle is
#: merely re-referenced (refcount bump, no allocation).
_TOUCH_FRACTION = 0.1


class HandleMode(enum.Enum):
    """Which handle regime the system runs under."""

    #: O2 as the paper measured it: 60-byte handles for objects *and*
    #: literals (strings, complex values).
    FULL = "full"
    #: Section 4.4 cure #1: a handle class hierarchy — literals get
    #: compact handles, objects keep full ones.
    COMPACT_LITERALS = "compact_literals"
    #: Section 4.4 cure #2: fixed-size tuple literals embedded in their
    #: object get *no* separate handle at all (strings of fixed width
    #: included); objects keep full handles.
    INLINE_TUPLES = "inline_tuples"
    #: Section 4.4 cure #3: bulk allocation — handles for whole pages of
    #: objects are allocated/freed together, amortizing the cost.
    BULK = "bulk"


class Handle:
    """One in-memory object representative.

    A handle is its own Figure 8 bracket: ``with om.borrow(rid) as
    handle:`` enters with the reference ``borrow`` took, and
    :meth:`__exit__` is the unreference, body raised or not, on the
    table that made it."""

    __slots__ = (
        "rid",
        "record",
        "class_def",
        "refcount",
        "version",
        "table",
    )

    def __init__(
        self, rid: Rid, record: bytes, class_def: ClassDef, table: "HandleTable"
    ):
        self.rid = rid
        self.record = record
        self.class_def = class_def
        self.refcount = 1
        self.version = None
        self.table = table

    def __enter__(self) -> "Handle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        """"unreference h": drop one reference; at zero park the handle
        at the young end of the delayed-free list and free the oldest
        parked ones beyond its capacity (version handles are freed
        outright -- the snapshot that needed them is the only plausible
        re-user)."""
        refcount = self.refcount
        if refcount <= 0:
            raise HandleError(f"double unreference of {self!r}")
        self.refcount = refcount = refcount - 1
        table = self.table
        table.counters.handles_unreferenced += 1
        table._buckets[_HANDLE] += table._unref_s
        if refcount:
            return
        if self.version is not None:
            table._versioned.pop((self.rid, self.version), None)
            return
        handles = table._handles
        capacity = table.delayed_free_capacity
        if not capacity:
            del handles[self.rid]
            return
        handles.move_to_end(self.rid)
        table._parked_count += 1
        while table._parked_count > capacity:
            rid, oldest = handles.popitem(last=False)
            if oldest.refcount:
                handles[rid] = oldest  # live: its place does not matter
            else:
                table._parked_count -= 1

    def __repr__(self) -> str:
        version = "" if self.version is None else f", v@{self.version}"
        return (
            f"Handle({self.rid}, {self.class_def.name}, "
            f"rc={self.refcount}{version})"
        )


class HandleTable:
    """The handles of one client, shared and (lazily) freed, and what
    each handle operation costs.

    * ``ObjectManager.borrow`` returns the existing handle when one is
      live or parked in the delayed-free list -- O2 "allocates only one
      and keeps a record of the number of pointers to this structure".
    * ``Handle.__exit__`` drops a refcount; at zero the handle parks in
      a bounded FIFO ("the destruction of Handles is delayed as much as
      possible so as to avoid unnecessary free/allocate").
    * ``ObjectManager.get_attr`` pays a literal handle for the separate
      records O2 creates for strings and complex values; its cost
      depends on :class:`HandleMode`.

    The table holds the state and the prices; the bracket's steps run
    where they are called, one frame per layer they cross.
    """

    def __init__(
        self,
        clock: SimClock,
        params: CostParams,
        counters: CounterSet,
        mode: HandleMode = HandleMode.FULL,
        delayed_free_capacity: int = 4096,
    ):
        if delayed_free_capacity < 0:
            raise ValueError("delayed_free_capacity must be >= 0")
        self.clock = clock
        #: The clock's live bucket map: a handle operation or an
        #: attribute decode is a dict update or two and one in-place add
        #: of a price worked out in the ``mode`` setter.
        self._buckets = clock.buckets
        self.params = params
        self.counters = counters
        self.mode = mode
        self.delayed_free_capacity = delayed_free_capacity
        #: Every live-record handle, live (``refcount > 0``) or parked
        #: in the delayed-free list (``refcount == 0``).  Parking moves a
        #: handle to the end, and nothing else moves a parked one, so the
        #: parked handles run oldest first: the FIFO is this map's order
        #: with the live handles skipped.
        self._handles: OrderedDict[Rid, Handle] = OrderedDict()
        self._parked_count = 0
        #: Version-tagged handles (MVCC snapshot reads), keyed by
        #: ``(rid, version_ts)`` so readers at different snapshots get
        #: distinct representatives of the same object.  Dropped at
        #: refcount zero — the delayed-free list is for live records.
        self._versioned: dict[tuple[Rid, int], Handle] = {}

    @property
    def mode(self) -> HandleMode:
        return self._mode

    @mode.setter
    def mode(self, mode: HandleMode) -> None:
        """Switch regime (the Section 4.4 ablation flips it between
        runs) and work out, once, what each handle operation and each
        attribute decode costs under it, in seconds: the charges are
        constants of ``(params, mode)``, and nothing else prices them."""
        self._mode = mode
        params = self.params
        alloc_us = params.handle_get_us
        touch_us = params.handle_get_us * _TOUCH_FRACTION
        unref_us = params.handle_unref_us
        full_pair = params.handle_get_us + params.handle_unref_us
        compact_pair = (
            params.compact_handle_get_us + params.compact_handle_unref_us
        )
        if mode is HandleMode.FULL:
            fixed = variable = full_pair
        elif mode is HandleMode.COMPACT_LITERALS:
            fixed = variable = compact_pair
        elif mode is HandleMode.INLINE_TUPLES:
            # Fixed-size literals are embedded in their owner's tuple.
            fixed, variable = None, compact_pair
        else:  # BULK
            alloc_us *= params.bulk_handle_factor
            touch_us *= params.bulk_handle_factor
            unref_us *= params.bulk_handle_factor
            fixed = variable = full_pair * params.bulk_handle_factor
        self._alloc_s = alloc_us / US_PER_S
        self._touch_s = touch_us / US_PER_S
        self._unref_s = unref_us / US_PER_S
        self._decode_s = params.attr_decode_us / US_PER_S
        #: ``fixed_size`` -> seconds for a literal's handle get +
        #: unreference pair; ``None``: the literal gets no handle.
        self._literal_s = {
            True: None if fixed is None else fixed / US_PER_S,
            False: variable / US_PER_S,
        }

    # -- version handles ------------------------------------------------

    def get_version(
        self,
        rid: Rid,
        version: int,
        loader: Callable[[], tuple[bytes, ClassDef]],
    ) -> Handle:
        """A referenced handle for the version of ``rid`` committed at
        ``version`` (a commit timestamp), loading the record via
        ``loader`` only if no handle for that version exists yet.  Its
        ``version`` slot is populated (paper, Section 4.4 -- the version
        pointer), and it is cached apart from the live-record handles
        ``ObjectManager.borrow`` makes."""
        key = (rid, version)
        handle = self._versioned.get(key)
        if handle is not None:
            handle.refcount += 1
            self._buckets[_HANDLE] += self._touch_s
            return handle
        record, class_def = loader()
        handle = Handle(rid, record, class_def, self)
        handle.version = version
        self._versioned[key] = handle
        self.counters.handles_allocated += 1
        self._buckets[_HANDLE] += self._alloc_s
        return handle

    # -- introspection ----------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._handles) - self._parked_count + len(self._versioned)

    # simlint: ok[CHARGE] restart discard models no O2 cost; reloads pay on next access
    def clear(self) -> None:
        """Forget every handle (client restart)."""
        self._handles.clear()
        self._parked_count = 0
        self._versioned.clear()

    # simlint: ok[CHARGE] invalidation is free (see docstring); the reload pays
    def forget_page(self, file_id: int, page_no: int) -> None:
        """Drop cached handles for records living on one page — used when
        the page's content was physically rolled back, so any cached
        decoded copy is stale.  Free, like :meth:`clear`: invalidation
        models no O2 cost, only the reload that follows does."""
        handles = self._handles
        stale = [
            rid for rid in handles
            if rid.file_id == file_id and rid.page_no == page_no
        ]
        for rid in stale:
            if not handles.pop(rid).refcount:
                self._parked_count -= 1
        stale_versions = [
            key for key in self._versioned
            if key[0].file_id == file_id and key[0].page_no == page_no
        ]
        for key in stale_versions:
            del self._versioned[key]
