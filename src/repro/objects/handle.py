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

#: Bytes of a full O2 handle (paper, Section 4.4).
FULL_HANDLE_BYTES = 60
#: Bytes of the proposed compact literal handle.
COMPACT_HANDLE_BYTES = 16
#: Extra bytes a handle carries when its Section 4.4 *version pointer*
#: is populated (an MVCC snapshot read resolved the rid to a version
#: chain entry instead of the live record): the chain reference plus
#: the version timestamp.
VERSION_REF_BYTES = 8

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
    handle:`` enters with the reference ``borrow`` took and drops it on
    the way out, body raised or not, through the table that made it."""

    __slots__ = (
        "rid",
        "record",
        "class_def",
        "refcount",
        "is_indexed",
        "index_ids",
        "version",
        "schema_history",
        "table",
    )

    def __init__(
        self, rid: Rid, record: bytes, class_def: ClassDef, table: "HandleTable"
    ):
        self.rid = rid
        self.record = record
        self.class_def = class_def
        self.refcount = 1
        self.is_indexed = False
        self.index_ids: tuple[int, ...] = ()
        self.version = None
        self.schema_history = None
        self.table = table

    def __enter__(self) -> "Handle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.table.unreference(self)

    @property
    def memory_bytes(self) -> int:
        if self.version is not None:
            return FULL_HANDLE_BYTES + VERSION_REF_BYTES
        return FULL_HANDLE_BYTES

    def __repr__(self) -> str:
        version = "" if self.version is None else f", v@{self.version}"
        return (
            f"Handle({self.rid}, {self.class_def.name}, "
            f"rc={self.refcount}{version})"
        )


class HandleTable:
    """Allocates, shares, and (lazily) frees handles.

    * ``get`` returns the existing handle when one is live or parked in
      the delayed-free list — O2 "allocates only one and keeps a record
      of the number of pointers to this structure".
    * ``unreference`` drops a refcount; at zero the handle parks in a
      bounded FIFO ("the destruction of Handles is delayed as much as
      possible so as to avoid unnecessary free/allocate").
    * literal handles model the separate records O2 creates for strings
      and complex values; their cost depends on :class:`HandleMode`.
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
        #: The clock's live bucket map: a handle operation is a dict
        #: update or two and one in-place add of a price worked out in
        #: the ``mode`` setter.
        self._buckets = clock.buckets
        self.params = params
        self.counters = counters
        self.mode = mode
        self.delayed_free_capacity = delayed_free_capacity
        self._live: dict[Rid, Handle] = {}
        self._parked: OrderedDict[Rid, Handle] = OrderedDict()
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
        runs) and work out, once, what each handle operation costs
        under it, in seconds: the charges are constants of ``(params,
        mode)``."""
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
        #: ``fixed_size`` -> seconds for a literal's handle get +
        #: unreference pair; ``None``: the literal gets no handle.
        self._literal_s = {
            True: None if fixed is None else fixed / US_PER_S,
            False: variable / US_PER_S,
        }

    # -- object handles -------------------------------------------------

    def get(
        self,
        rid: Rid,
        loader: Callable[[], tuple[bytes, ClassDef]],
        version: int | None = None,
    ) -> Handle:
        """Return a referenced handle for ``rid``, loading the record via
        ``loader`` only if no handle exists yet.

        With ``version`` (a commit timestamp), the handle represents
        that *version chain entry* instead of the live record: its
        ``version`` slot is populated (paper, Section 4.4 — the version
        pointer), it costs :data:`VERSION_REF_BYTES` extra bytes, and it
        is cached separately from live-record handles."""
        if version is not None:
            return self._get_versioned(rid, loader, version)
        handle = self.reference(rid)
        if handle is None:
            handle = self.allocate(rid, *loader())
        return handle

    def reference(self, rid: Rid) -> Handle | None:
        """The hit path of :meth:`get`: re-reference the handle ``rid``
        already has, live or parked; ``None`` when it has none and the
        caller must read the record and :meth:`allocate`."""
        live = self._live
        if rid in live:
            handle = live[rid]
            handle.refcount += 1
        elif rid in self._parked:
            handle = live[rid] = self._parked.pop(rid)
            handle.refcount = 1
        else:
            return None
        self._buckets[Bucket.HANDLE] += self._touch_s
        return handle

    def allocate(self, rid: Rid, record: bytes, class_def: ClassDef) -> Handle:
        """The miss path of :meth:`get`: a fresh handle, referenced once."""
        handle = Handle(rid, record, class_def, self)
        self._live[rid] = handle
        self.counters.handles_allocated += 1
        self._buckets[Bucket.HANDLE] += self._alloc_s
        return handle

    def _get_versioned(
        self,
        rid: Rid,
        loader: Callable[[], tuple[bytes, ClassDef]],
        version: int,
    ) -> Handle:
        key = (rid, version)
        handle = self._versioned.get(key)
        if handle is not None:
            handle.refcount += 1
            self._buckets[Bucket.HANDLE] += self._touch_s
            return handle
        record, class_def = loader()
        handle = Handle(rid, record, class_def, self)
        handle.version = version
        self._versioned[key] = handle
        self.counters.handles_allocated += 1
        self._buckets[Bucket.HANDLE] += self._alloc_s
        return handle

    def unreference(self, handle: Handle) -> None:
        """Drop one reference; park the handle when none remain (version
        handles are freed outright — the snapshot that needed them is
        the only plausible re-user)."""
        if handle.refcount <= 0:
            raise HandleError(f"double unreference of {handle!r}")
        handle.refcount -= 1
        self.counters.handles_unreferenced += 1
        self._buckets[Bucket.HANDLE] += self._unref_s
        if handle.refcount == 0:
            if handle.version is not None:
                self._versioned.pop((handle.rid, handle.version), None)
                return
            del self._live[handle.rid]
            if self.delayed_free_capacity:
                parked = self._parked
                parked[handle.rid] = handle
                while len(parked) > self.delayed_free_capacity:
                    parked.popitem(last=False)

    # -- literal handles ----------------------------------------------------

    def charge_literal(self, fixed_size: bool = True) -> None:
        """Account for the handle O2 gives a string/complex-value literal
        when an attribute of that kind is materialized.

        FULL mode pays the full get+unref pair; COMPACT_LITERALS pays the
        compact pair; INLINE_TUPLES pays nothing for *fixed-size*
        literals (they are embedded in their owner's tuple — Section 4.4)
        and the compact pair for variable-size ones; BULK pays the
        amortized full pair.
        """
        seconds = self._literal_s[fixed_size]
        if seconds is None:
            return
        self.counters.handles_allocated += 1
        self.counters.handles_unreferenced += 1
        self._buckets[Bucket.HANDLE] += seconds

    # -- introspection ----------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._live) + len(self._versioned)

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    @property
    def memory_bytes(self) -> int:
        tables = (self._live.values(), self._parked.values(),
                  self._versioned.values())
        return sum(h.memory_bytes for table in tables for h in table)

    # simlint: ok[CHARGE] restart discard models no O2 cost; reloads pay on next access
    def clear(self) -> None:
        """Forget every handle (client restart)."""
        self._live.clear()
        self._parked.clear()
        self._versioned.clear()

    # simlint: ok[CHARGE] invalidation is free (see docstring); the reload pays
    def forget_page(self, file_id: int, page_no: int) -> None:
        """Drop cached handles for records living on one page — used when
        the page's content was physically rolled back, so any cached
        decoded copy is stale.  Free, like :meth:`clear`: invalidation
        models no O2 cost, only the reload that follows does."""
        for table in (self._live, self._parked):
            stale = [
                rid for rid in table
                if rid.file_id == file_id and rid.page_no == page_no
            ]
            for rid in stale:
                del table[rid]
        stale_versions = [
            key for key in self._versioned
            if key[0].file_id == file_id and key[0].page_no == page_no
        ]
        for key in stale_versions:
            del self._versioned[key]
