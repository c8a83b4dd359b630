"""Optimizer statistics.

The paper's optimizer project — "find out what statistics the system
should maintain and how to incorporate them into a cost model" (Section
2) — gets its first half here; the second half, the estimator and the
planner that consume them, is :mod:`repro.oql`.  This package collects
the statistics and keeps them:

* :mod:`repro.opt.collector` — ANALYZE passes that scan extents through
  the object manager (paying simulated time) and build per-extent
  cardinalities, per-attribute equi-depth histograms
  (:mod:`repro.opt.histogram`), distinct counts and association fan-out;
* :mod:`repro.opt.persist` — round-trip of statistics through the
  :mod:`repro.stats` results database.

The ``analyze`` statement (:mod:`repro.oql.explain`) runs a collection
and installs the result into the engine's planner, which from then on
searches every access path; ``benchmarks/bench_optimizer.py`` scores an
analyzed planner against one that never was, with semantic validation
and a zero-regression gate.
"""

from repro.opt.collector import (
    AttributeStats,
    ExtentStats,
    FanoutStats,
    SAMPLE_LIMIT,
    StatsCollector,
    TableStats,
    summarize,
)
from repro.opt.histogram import DEFAULT_BUCKETS, EquiDepthHistogram
from repro.opt.persist import save_table_stats
from repro.oql.optimizer import Optimizer

#: The planner's name from when statistics-driven search was a
#: subclass.  ``benchmarks/wallclock/workloads.py`` still imports it, and
#: that benchmark's code changes only together with its expected
#: digests; rename it there and this alias goes.
CostBasedOptimizer = Optimizer

__all__ = [
    "AttributeStats",
    "CostBasedOptimizer",
    "DEFAULT_BUCKETS",
    "EquiDepthHistogram",
    "ExtentStats",
    "FanoutStats",
    "SAMPLE_LIMIT",
    "StatsCollector",
    "TableStats",
    "save_table_stats",
    "summarize",
]
