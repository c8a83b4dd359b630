"""Equi-depth histograms over scalar attribute values.

The ANALYZE pass (:mod:`repro.opt.collector`) sorts the sampled values
of each numeric attribute and cuts them into buckets of (near-)equal
row count; each bucket remembers only its upper boundary and its count.
Selectivity of a range predicate is then the sum of fully covered
buckets plus a linear interpolation inside the boundary buckets — the
classic equi-depth estimate, which bounds the error of any single
predicate by roughly one bucket's worth of rows regardless of skew.

Everything here is pure computation over already-sampled values; the
simulated-time charges for reading those values (and for the sort that
builds the histogram) are levied by the collector.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default number of buckets — enough for ~2.5% worst-case resolution.
DEFAULT_BUCKETS = 40


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over one attribute's sampled values.

    ``uppers[i]`` is the largest value in bucket ``i``; bucket ``i``
    covers ``(uppers[i-1], uppers[i]]`` (the first bucket starts at
    ``lo``, the sample minimum, inclusively).  ``counts[i]`` is the
    number of sampled values in the bucket.
    """

    lo: float
    uppers: tuple[float, ...]
    counts: tuple[int, ...]
    #: Estimated distinct values in the *extent* (scaled up from the
    #: sample by the collector when sampling was in effect).
    n_distinct: int

    @property
    def n(self) -> int:
        """Sampled values represented by the histogram."""
        return sum(self.counts)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        values: list[float],
        buckets: int = DEFAULT_BUCKETS,
        n_distinct: int | None = None,
    ) -> "EquiDepthHistogram":
        """Build from raw (unsorted) values; deterministic — the only
        data dependence is the sorted value sequence itself."""
        ordered = sorted(float(v) for v in values)
        if not ordered:
            return cls(0.0, (), (), 0)
        total = len(ordered)
        if n_distinct is None:
            n_distinct = 1 + sum(
                1 for a, b in zip(ordered, ordered[1:]) if a != b
            )
        uppers: list[float] = []
        counts: list[int] = []
        start = 0
        n_buckets = max(1, min(buckets, total))
        for i in range(n_buckets):
            end = min(total, round((i + 1) * total / n_buckets))
            if end <= start:
                continue
            uppers.append(ordered[end - 1])
            counts.append(end - start)
            start = end
        return cls(ordered[0], tuple(uppers), tuple(counts), n_distinct)

    # -- estimation ------------------------------------------------------

    def eq_fraction(self) -> float:
        """Estimated fraction of rows equal to one in-range value."""
        if self.n == 0 or self.n_distinct == 0:
            return 0.0
        return 1.0 / self.n_distinct

    def fraction_le(self, x: float) -> float:
        """Estimated fraction of values ``<= x``."""
        n = self.n
        if n == 0:
            return 0.0
        if x < self.lo:
            return 0.0
        acc = 0.0
        prev = self.lo
        for upper, count in zip(self.uppers, self.counts):
            if x >= upper:
                acc += count
                prev = upper
                continue
            width = upper - prev
            if width > 0:
                acc += count * (x - prev) / width
            break
        return min(1.0, acc / n)

    def fraction_lt(self, x: float) -> float:
        """Estimated fraction of values strictly ``< x``."""
        return max(0.0, self.fraction_le(x) - self.eq_fraction())

    def selectivity(
        self,
        low: object | None,
        high: object | None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> float:
        """Estimated fraction of rows in the range — the same
        ``(low, high, include_low, include_high)`` convention as
        :meth:`~repro.oql.optimizer.SargablePredicate.bounds`."""
        if self.n == 0:
            return 0.0
        if high is None:
            hi_frac = 1.0
        elif include_high:
            hi_frac = self.fraction_le(float(high))
        else:
            hi_frac = self.fraction_lt(float(high))
        if low is None:
            lo_frac = 0.0
        elif include_low:
            lo_frac = self.fraction_lt(float(low))
        else:
            lo_frac = self.fraction_le(float(low))
        return max(0.0, hi_frac - lo_frac)
