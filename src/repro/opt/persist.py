"""Round-trip optimizer statistics through the results database.

ANALYZE output is persisted as first-class objects in a
:class:`~repro.stats.store.StatsDatabase` — the paper's own
eat-your-own-dogfood discipline, extended from benchmark results to the
planner's statistics.  ``save_table_stats`` writes one ExtentStat per
analyzed collection, one ColumnStat (plus ordered HistBucket objects)
per attribute histogram, and one FanoutStat per association;
``load_table_stats`` reconstructs an equivalent
:class:`~repro.opt.collector.TableStats` bundle, so a planner can be
warmed from a previous run's statistics without re-scanning anything.
The schema names each class's attributes after the dataclass fields, so
both directions are plain dicts.
"""

from __future__ import annotations

from dataclasses import fields

from repro.opt.collector import (
    AttributeStats,
    ExtentStats,
    FanoutStats,
    TableStats,
)
from repro.opt.histogram import EquiDepthHistogram
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


def load_table_stats(stats_db: StatsDatabase) -> TableStats:
    """Rebuild a :class:`TableStats` from everything previously saved.

    Stat objects are append-only (the underlying collections have no
    delete), so a re-run ANALYZE leaves earlier rows behind; every key
    — extent name, ``(collection, attr)`` column, fan-out association —
    resolves last-wins, i.e. to the most recent save.
    """
    columns: dict[tuple[str, str], AttributeStats] = {}
    for column in stats_db.objects(COLUMN_STAT_CLASS):
        buckets = [stats_db.decode(rid) for rid in column["buckets"]]
        columns[(column["collection"], column["attr"])] = AttributeStats(
            attr=column["attr"],
            min_value=column["min_value"],
            max_value=column["max_value"],
            histogram=EquiDepthHistogram(
                lo=column["lo"],
                uppers=tuple(bucket["upper"] for bucket in buckets),
                counts=tuple(bucket["count"] for bucket in buckets),
                n_distinct=column["n_distinct"],
            ),
        )
    stats = TableStats()
    for extent in stats_db.objects(EXTENT_STAT_CLASS):
        name = extent["collection"]
        attributes = (stat for (owner, __), stat in columns.items() if owner == name)
        stats.extents[name] = ExtentStats(
            **extent, attributes=tuple(sorted(attributes, key=lambda a: a.attr))
        )
    for fanout in stats_db.objects(FANOUT_STAT_CLASS):
        stats.fanouts[(fanout["parent_collection"], fanout["set_attr"])] = (
            FanoutStats(**fanout)
        )
    return stats
