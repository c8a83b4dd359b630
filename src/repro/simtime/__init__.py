"""Simulated time: the cost model and the clock every substrate charges.

The paper analyses its measurements as a sum of I/O time ("assuming 10 ms
per page read", Section 4.2) and CPU terms (handle get/unreference, rid
sorts, integer compares — Figure 9).  This package makes that
decomposition executable: a :class:`~repro.simtime.clock.SimClock`
accumulates modeled time in named buckets, and
:class:`~repro.simtime.params.CostParams` holds every constant, calibrated
against the arithmetic the paper itself performs.
"""

from repro.simtime.clock import Bucket, SimClock
from repro.simtime.meters import (
    METER_NAMES, CounterSet, MeterSnapshot, meter_values,
)
from repro.simtime.params import (
    CostParams, MemoryModel, spilled_bytes, swapped_fraction,
)

__all__ = [
    "Bucket",
    "SimClock",
    "CostParams",
    "MemoryModel",
    "spilled_bytes",
    "swapped_fraction",
    "CounterSet",
    "MeterSnapshot",
    "METER_NAMES",
    "meter_values",
]
