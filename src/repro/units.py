"""Size and time units shared across the library.

The paper's hardware vocabulary is pages, kilobytes and megabytes; keeping
the conversions in one module avoids magic numbers in the substrates.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB

#: O2 used 4 KB pages (paper, Section 2).
PAGE_SIZE = 4 * KB

#: Milliseconds per second, for clock conversions.
MS_PER_S = 1000.0

#: Microseconds per second, for clock conversions.
US_PER_S = 1_000_000.0


def pages_for_bytes(n_bytes: int, page_size: int = PAGE_SIZE) -> int:
    """Number of pages needed to hold ``n_bytes`` (ceiling division)."""
    if n_bytes < 0:
        raise ValueError(f"negative byte count: {n_bytes}")
    return -(-n_bytes // page_size)

