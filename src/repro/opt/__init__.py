"""The cost-based optimizer subsystem.

The paper's optimizer project — "find out what statistics the system
should maintain and how to incorporate them into a cost model" (Section
2) — gets its missing half here.  :mod:`repro.oql` supplies the cost
model and a heuristic planner; this package adds the statistics and the
search:

* :mod:`repro.opt.collector` — ANALYZE passes that scan extents through
  the object manager (paying simulated time) and build per-extent
  cardinalities, per-attribute equi-depth histograms
  (:mod:`repro.opt.histogram`), distinct counts and association fan-out;
* :mod:`repro.opt.estimator` — selectivity/cardinality estimation over
  those statistics, emitting the cost model's
  :class:`~repro.oql.cost.JoinStats`;
* :mod:`repro.opt.enumerator` — :class:`CostBasedOptimizer`, which
  enumerates access paths × join strategies with estimated simtime as
  the objective and plugs into :class:`~repro.oql.OQLEngine` unchanged;
* :mod:`repro.opt.persist` — round-trip of statistics through the
  :mod:`repro.stats` results database.

The ``analyze`` and ``explain`` OQL statements (:mod:`repro.oql.explain`)
drive the lifecycle at the query layer; ``benchmarks/bench_optimizer.py``
scores the planner against the heuristic with semantic validation and a
zero-regression gate.
"""

from repro.opt.collector import (
    AttributeStats,
    DEFAULT_SAMPLE_LIMIT,
    ExtentStats,
    FanoutStats,
    StatsCollector,
    TableStats,
    summarize,
)
from repro.opt.enumerator import CostBasedOptimizer
from repro.opt.estimator import CardinalityEstimator
from repro.opt.histogram import DEFAULT_BUCKETS, EquiDepthHistogram
from repro.opt.persist import save_table_stats

__all__ = [
    "AttributeStats",
    "CardinalityEstimator",
    "CostBasedOptimizer",
    "DEFAULT_BUCKETS",
    "DEFAULT_SAMPLE_LIMIT",
    "EquiDepthHistogram",
    "ExtentStats",
    "FanoutStats",
    "StatsCollector",
    "TableStats",
    "save_table_stats",
    "summarize",
]
