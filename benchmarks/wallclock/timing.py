"""Host time in calibrated seconds.

Raw wall time on a shared VM does not repeat: the machine runs in
plateaus of 5-10 s that are 1.2x-3.75x slower than its own best, and
``process_time`` follows wall, so CPU time is no refuge (README.md,
"Why calibrated seconds").  The fix is to measure the machine next to
the work.  :class:`Kernel` is a fixed pure-Python function that takes
about 2 ms at quiet speed; the local speed is the median of five kernel
runs, taken before the first operation and again after every *window*
of at least 100 ms of operation time.  An operation's normalised time is
``op_wall * KERNEL_NOMINAL_S / mean(cal_before, cal_after)`` -- the time
it would have taken had the kernel run at its nominal 2 ms.

The kernel is FROZEN.  Changing a line of it changes the unit every
committed number is expressed in; that is a new benchmark issue.
"""

from __future__ import annotations

import random
import statistics
import struct
import time
from dataclasses import dataclass

#: The kernel's nominal duration: the unit calibrated seconds are in.
KERNEL_NOMINAL_S = 0.002
#: Kernel runs per speed sample (the median is used).
KERNEL_RUNS = 5
#: A window closes once this much raw operation time has accumulated.
WINDOW_S = 0.1

_PACKED = struct.pack("<qid", 1997, 42, 3.25)
_COMPUTE_ROUNDS = 1700
_RING_NODES = 60_000
_CHASE_STEPS = 9000
_ALLOC_ROUNDS = 5000


class _Cell:
    """Stand-in for an object header: attribute reads and writes plus
    one bound-method call per round; as a ring node, one pointer."""

    __slots__ = ("rank", "weight", "next")

    def __init__(self) -> None:
        self.rank = 0
        self.weight = 0.5
        self.next = self

    def bump(self, step: int) -> int:
        self.rank += step
        return self.rank


class Kernel:
    """The frozen calibration kernel, in three parts of about equal
    length at quiet speed, because a noisy neighbour does not slow all
    code alike:

    * *compute*: method calls, attribute and dict access, small-tuple
      allocation, ``struct.unpack``, float adds, all in cache;
    * *chase*: pointer-chasing through a shuffled ring of 60,000 small
      objects -- larger than the caches, as the simulator's own page and
      handle tables are;
    * *allocate*: fill a list and a dict with fresh tuples, as a load or
      a result set does.

    Measured against ``load_derby`` and a hash join while a CPU hog ran
    on the sibling core, the compute part alone over-corrected slow
    phases by 13-19 %; the three together by under 1 %.  With a
    memory-bandwidth hog neither was off by more than 8 % (README.md)."""

    def __init__(self) -> None:
        nodes = [_Cell() for __ in range(_RING_NODES)]
        order = list(range(_RING_NODES))
        random.Random(1997).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._nodes = nodes          # keeps the ring alive
        self._at = nodes[0]

    def __call__(self) -> float:
        cell = _Cell()
        table: dict[int, float] = {}
        unpack = struct.unpack
        total = 0.0
        for i in range(_COMPUTE_ROUNDS):
            key = cell.bump(3) & 63
            pair = (key, i)
            table[key] = table.get(key, 0.0) + cell.weight
            big, small, frac = unpack("<qid", _PACKED)
            total += frac + pair[0] + (big - small) * 1e-9
        node = self._at
        for __ in range(_CHASE_STEPS):
            total += node.weight
            node = node.next
        self._at = node
        rows = []
        by_key = {}
        for i in range(_ALLOC_ROUNDS):
            row = (i, i + 1, total)
            rows.append(row)
            by_key[i] = row
        return total + len(rows)


def median_of_passes(per_pass: list[list[float]]) -> list[float]:
    """Per-op median across passes: ``per_pass[p][i]`` is op ``i``'s
    time in pass ``p``; every pass runs the identical op list."""
    n_ops = len(per_pass[0])
    if any(len(times) != n_ops for times in per_pass):
        raise ValueError("passes ran different op lists")
    return [
        statistics.median(times[i] for times in per_pass)
        for i in range(n_ops)
    ]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Refuses a percentile with fewer than ten samples beyond it: below
    that the number is the time of one or two particular operations."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has only {beyond:.1f} "
            "samples beyond it (need 10)"
        )
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class OpTime:
    """One timed harness call."""

    raw_s: float
    #: Calibrated seconds; filled in when the op's window closes.
    host_s: float = 0.0


class HostTimer:
    """Times operations and normalises them window by window.

    Calibration runs *between* operations, never inside one, so it is
    outside every op's time.  ``clock`` and ``kernel_fn`` are injectable
    so the arithmetic can be tested on a fake clock."""

    def __init__(self, clock=time.perf_counter, kernel_fn=None):
        self._clock = clock
        self._kernel = kernel_fn if kernel_fn is not None else Kernel()
        #: Every speed sample taken (seconds per kernel run).
        self.cal_samples: list[float] = []
        self._cal_before: float | None = None
        self._window: list[OpTime] = []
        self._window_raw_s = 0.0

    def calibrate(self) -> float:
        """One speed sample: the median of ``KERNEL_RUNS`` kernel runs."""
        runs = []
        for __ in range(KERNEL_RUNS):
            t0 = self._clock()
            self._kernel()
            runs.append(self._clock() - t0)
        sample = statistics.median(runs)
        self.cal_samples.append(sample)
        return sample

    def start(self) -> None:
        """Take the speed sample that opens the first window."""
        self._cal_before = self.calibrate()

    def time(self, fn):
        """Run ``fn()`` as one op; returns ``(result, OpTime)``.  The
        ``OpTime.host_s`` is valid once the window has closed -- at the
        latest after :meth:`flush`."""
        if self._cal_before is None:
            self.start()
        t0 = self._clock()
        result = fn()
        op = OpTime(raw_s=self._clock() - t0)
        self._window.append(op)
        self._window_raw_s += op.raw_s
        if self._window_raw_s >= WINDOW_S:
            self.flush()
        return result, op

    def flush(self) -> None:
        """Close the open window (if any): sample the speed again and
        normalise every op in the window by the mean of the two samples
        that bracket it."""
        if not self._window:
            return
        cal_after = self.calibrate()
        speed = (self._cal_before + cal_after) / 2.0
        for op in self._window:
            op.host_s = op.raw_s * KERNEL_NOMINAL_S / speed
        self._cal_before = cal_after
        self._window = []
        self._window_raw_s = 0.0
