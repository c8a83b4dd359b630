"""Optimizer statistics, stored in the results database.

ANALYZE output is persisted as first-class objects in a
:class:`~repro.stats.store.StatsDatabase` — the paper's own
eat-your-own-dogfood discipline, extended from benchmark results to the
planner's statistics.  ``save_table_stats`` writes one ExtentStat per
analyzed collection, one ColumnStat (plus ordered HistBucket objects)
per attribute histogram, and one FanoutStat per association.  The
schema names each class's attributes after the dataclass fields, so a
row is a plain dict.
"""

from __future__ import annotations

from dataclasses import fields

from repro.opt.collector import TableStats
from repro.stats.schema import (
    COLUMN_STAT_CLASS,
    EXTENT_STAT_CLASS,
    FANOUT_STAT_CLASS,
    HIST_BUCKET_CLASS,
)
from repro.stats.store import StatsDatabase


def _values(stats, *skip: str) -> dict[str, object]:
    """A statistics dataclass's fields, minus ``skip``, as a dict."""
    return {
        f.name: getattr(stats, f.name) for f in fields(stats) if f.name not in skip
    }


def save_table_stats(stats_db: StatsDatabase, stats: TableStats) -> int:
    """Persist one ANALYZE result; returns the number of stat objects
    written (extents + columns + fan-outs, excluding buckets)."""
    written = 0
    for name in sorted(stats.extents):
        extent = stats.extents[name]
        stats_db.record(EXTENT_STAT_CLASS, _values(extent, "attributes"))
        written += 1
        for attr in extent.attributes:
            histogram = attr.histogram
            buckets = [
                stats_db.record(HIST_BUCKET_CLASS, {"upper": upper, "count": count})
                for upper, count in zip(histogram.uppers, histogram.counts)
            ]
            stats_db.record(COLUMN_STAT_CLASS, {
                "collection": extent.collection,
                **_values(attr, "histogram"),
                "lo": histogram.lo,
                "n_distinct": histogram.n_distinct,
                "buckets": buckets,
            })
            written += 1
    for key in sorted(stats.fanouts):
        stats_db.record(FANOUT_STAT_CLASS, _values(stats.fanouts[key]))
        written += 1
    return written
