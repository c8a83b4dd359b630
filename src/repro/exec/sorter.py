"""Charged sorting.

The paper's *sorted index scan* (Figure 8) sorts up to 1.8 million rids
before fetching objects; Figure 9 counts that sort as an explicit CPU
term.  ``sort_charged`` performs the sort and charges
``sort_per_element_log_us x n x log2(n)`` to the clock's SORT bucket.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from repro.simtime import Bucket, CostParams, SimClock

_IO = Bucket.IO
_SORT = Bucket.SORT

T = TypeVar("T")


def sort_charged(
    items: list[T],
    clock: SimClock,
    params: CostParams,
    key: Callable[[T], object] | None = None,
    bytes_per_item: int | None = None,
) -> list[T]:
    """Return ``sorted(items)``, charging the modeled comparison cost.

    When ``bytes_per_item`` is given, the sort's working set is checked
    against the query memory budget; the overflow is modeled as an
    external sort — one extra write+read pass over the spilled bytes —
    so sort-based plans pay for memory pressure just like hash-based
    ones (only with sequential run I/O instead of OS thrashing).
    """
    n = len(items)
    if n > 1:
        clock.charge_us(
            _SORT, params.sort_per_element_log_us * n * math.log2(n)
        )
    if bytes_per_item is not None and n > 0:
        total = n * bytes_per_item
        budget = params.memory.query_memory_bytes
        if budget and total > budget:
            from repro.units import pages_for_bytes

            spilled_pages = pages_for_bytes(total - budget)
            clock.charge_ms(
                _IO,
                spilled_pages * (params.page_write_ms + params.page_read_ms),
            )
    return sorted(items, key=key)  # type: ignore[type-var,arg-type]
