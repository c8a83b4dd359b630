"""Charged sorting.

The paper's *sorted index scan* (Figure 8) sorts up to 1.8 million rids
before fetching objects; Figure 9 counts that sort as an explicit CPU
term.  ``sort_charged`` performs the sort and charges
:meth:`~repro.simtime.CostParams.sort_us` to the clock's SORT bucket.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.simtime import Bucket, CostParams, SimClock, spilled_bytes
from repro.units import pages_for_bytes

_IO = Bucket.IO
_SORT = Bucket.SORT

#: Bytes of one (rid, value) pair in a sort run or a spilled hybrid-hash
#: partition: the size of an index entry with an integer key.
RID_PAIR_BYTES = 16

T = TypeVar("T")


def sort_charged(
    items: list[T],
    clock: SimClock,
    params: CostParams,
    key: Callable[[T], object] | None = None,
    bytes_per_item: int | None = None,
    reverse: bool = False,
) -> list[T]:
    """Return ``sorted(items, key=key, reverse=reverse)`` — a stable
    sort either way — charging the modeled comparison cost.

    When ``bytes_per_item`` is given, the sort's working set is checked
    against the query memory budget; the overflow is modeled as an
    external sort — one extra write+read pass over the spilled bytes —
    so sort-based plans pay for memory pressure just like hash-based
    ones (only with sequential run I/O instead of OS thrashing).
    """
    n = len(items)
    if n > 1:
        clock.charge_us(_SORT, params.sort_us(n))
    if bytes_per_item is not None and n > 0:
        budget = params.memory.query_memory_bytes
        spilled = spilled_bytes(n * bytes_per_item, budget)
        if spilled:
            clock.charge_ms(_IO, params.spill_ms(pages_for_bytes(spilled)))
    return sorted(items, key=key, reverse=reverse)  # type: ignore[type-var,arg-type]
