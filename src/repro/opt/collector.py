"""The ANALYZE pass: scan extents, build optimizer statistics.

The collector reads sampled objects through the object manager — handle
brackets, page faults, cache traffic and all — so an ``analyze``
statement is charged simulated time exactly like any other workload (the
paper's cost-model premise: the statistics the system maintains are
themselves paid for by the system).  Sampling is systematic with a
seeded offset so repeated runs over the same database produce identical
statistics (the simlint DET discipline).

Output is a :class:`TableStats` bundle: per-extent cardinalities and
page counts, per-attribute equi-depth histograms with distinct counts,
and per-relationship fan-out statistics.  :mod:`repro.opt.persist`
round-trips the bundle through the ``repro.stats`` results database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.objects.model import AttrKind
from repro.oql.catalog import Catalog, RelationshipInfo
from repro.opt.histogram import EquiDepthHistogram
from repro.simtime import Bucket

_SORT = Bucket.SORT

#: Attribute kinds that get histograms (orderable numeric scalars).
_NUMERIC_KINDS = (AttrKind.INT32, AttrKind.REAL64)

#: Cap on objects read per extent; above it the collector
#: switches to systematic sampling (every k-th object, seeded start).
SAMPLE_LIMIT = 4000

#: Seeds each extent's sample offset, with the extent name.
SAMPLE_SEED = 1


@dataclass(frozen=True)
class AttributeStats:
    """Statistics for one numeric attribute of one extent."""

    attr: str
    min_value: float
    max_value: float
    histogram: EquiDepthHistogram


@dataclass(frozen=True)
class ExtentStats:
    """Statistics for one named collection."""

    collection: str
    n_objects: int
    file_pages: int
    extent_pages: int
    #: Objects actually read (== ``n_objects`` below the sample limit).
    sampled: int
    attributes: tuple[AttributeStats, ...]

    def attribute(self, name: str) -> AttributeStats | None:
        for stats in self.attributes:
            if stats.attr == name:
                return stats
        return None


@dataclass(frozen=True)
class FanoutStats:
    """Statistics for one parent→children set association."""

    parent_collection: str
    set_attr: str
    child_collection: str
    sampled: int
    avg_children: float
    max_children: int
    #: Fraction of sampled parents with a non-empty child set.
    frac_with_children: float


@dataclass
class TableStats:
    """Everything one ANALYZE pass learned, keyed for the estimator."""

    extents: dict[str, ExtentStats] = field(default_factory=dict)
    fanouts: dict[tuple[str, str], FanoutStats] = field(default_factory=dict)

    def extent(self, name: str) -> ExtentStats | None:
        return self.extents.get(name)

    def fanout(self, parent: str, set_attr: str) -> FanoutStats | None:
        return self.fanouts.get((parent, set_attr))


class StatsCollector:
    """Runs ANALYZE passes against one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.sample_limit = SAMPLE_LIMIT

    # -- entry point ------------------------------------------------------

    def collect(self, collections: tuple[str, ...] | None = None) -> TableStats:
        """Analyze the named collections (default: every registered one)
        plus the relationships rooted at them."""
        names = sorted(collections) if collections else (
            self.catalog.collection_names()
        )
        stats = TableStats()
        for name in names:
            stats.extents[name] = self._collect_extent(name)
        for rel in self.catalog.relationships():
            if rel.parent_collection not in names:
                continue
            key = (rel.parent_collection, rel.set_attr)
            stats.fanouts[key] = self._collect_fanout(rel)
        return stats

    # -- extents ---------------------------------------------------------

    def _sample_step(self, name: str, n: int) -> tuple[int, int]:
        """(step, offset) of the systematic sample over ``n`` objects.

        The offset comes from a generator seeded by ``SAMPLE_SEED`` and the
        extent name — stable across runs, unlike ``hash(str)``.
        """
        step = max(1, -(-n // self.sample_limit))
        if step == 1:
            return 1, 0
        return step, Random(f"{SAMPLE_SEED}:{name}").randrange(step)

    def _collect_extent(self, name: str) -> ExtentStats:
        catalog = self.catalog
        db = catalog.db
        om = db.manager
        info = catalog.collection(name)
        n = catalog.collection_size(name)
        class_def = db.schema.cls(info.class_name)
        attrs = sorted(
            a.name for a in class_def.scalar_attributes()
            if a.kind in _NUMERIC_KINDS
        )
        step, offset = self._sample_step(name, n)
        values: dict[str, list[float]] = {attr: [] for attr in attrs}
        sampled = 0
        for i, rid in enumerate(info.collection.iter_rids()):
            if i % step != offset:
                continue
            sampled += 1
            with om.borrow(rid) as handle:
                for attr in attrs:
                    values[attr].append(float(om.get_attr(handle, attr)))
        attribute_stats = []
        for attr in attrs:
            sample = values[attr]
            if not sample:
                continue
            # Building the histogram sorts the sample: pay for it.
            db.clock.charge_us(_SORT, db.params.sort_us(len(sample)))
            histogram = EquiDepthHistogram.build(sample)
            attribute_stats.append(
                AttributeStats(
                    attr=attr,
                    min_value=min(sample),
                    max_value=max(sample),
                    histogram=self._scale_distinct(histogram, sampled, n),
                )
            )
        return ExtentStats(
            collection=name,
            n_objects=n,
            file_pages=catalog.file_pages(name),
            extent_pages=catalog.extent_pages(name),
            sampled=sampled,
            attributes=tuple(attribute_stats),
        )

    @staticmethod
    def _scale_distinct(
        histogram: EquiDepthHistogram, sampled: int, n: int
    ) -> EquiDepthHistogram:
        """Scale the sample's distinct count up to the extent.

        A systematic sample sees at most one value in ``step``; when the
        sample is saturated with distinct values (near-key attributes)
        the extent plausibly is too, so extrapolate linearly and clamp.
        """
        if sampled >= n or histogram.n == 0:
            return histogram
        scaled = min(n, round(histogram.n_distinct * n / max(1, sampled)))
        return EquiDepthHistogram(
            histogram.lo, histogram.uppers, histogram.counts, scaled
        )

    # -- fan-out ---------------------------------------------------------

    def _collect_fanout(self, rel: RelationshipInfo) -> FanoutStats:
        catalog = self.catalog
        db = catalog.db
        om = db.manager
        info = catalog.collection(rel.parent_collection)
        n = catalog.collection_size(rel.parent_collection)
        step, offset = self._sample_step(
            f"{rel.parent_collection}.{rel.set_attr}", n
        )
        counts: list[int] = []
        for i, rid in enumerate(info.collection.iter_rids()):
            if i % step != offset:
                continue
            with om.borrow(rid) as handle:
                value = om.get_attr(handle, rel.set_attr)
            counts.append(sum(1 for __ in db.iter_set_rids(value)))
        sampled = len(counts)
        if sampled == 0:
            return FanoutStats(
                rel.parent_collection, rel.set_attr, rel.child_collection,
                0, 0.0, 0, 0.0,
            )
        return FanoutStats(
            parent_collection=rel.parent_collection,
            set_attr=rel.set_attr,
            child_collection=rel.child_collection,
            sampled=sampled,
            avg_children=sum(counts) / sampled,
            max_children=max(counts),
            frac_with_children=sum(1 for c in counts if c) / sampled,
        )


def summarize(stats: TableStats) -> list[str]:
    """One human-readable line per analyzed extent and association —
    what the ``analyze`` statement returns as its result rows."""
    lines: list[str] = []
    for name in sorted(stats.extents):
        extent = stats.extents[name]
        lines.append(
            f"analyzed {name}: {extent.n_objects} objects, "
            f"{extent.file_pages} pages, {len(extent.attributes)} "
            f"attribute histogram(s), sampled {extent.sampled}"
        )
    for parent, set_attr in sorted(stats.fanouts):
        fanout = stats.fanouts[(parent, set_attr)]
        lines.append(
            f"analyzed {parent}.{set_attr}: avg fan-out "
            f"{fanout.avg_children:.1f}, max {fanout.max_children}, "
            f"{fanout.frac_with_children * 100:.0f}% with children"
        )
    return lines


__all__ = [
    "AttributeStats",
    "ExtentStats",
    "FanoutStats",
    "TableStats",
    "StatsCollector",
    "summarize",
    "SAMPLE_LIMIT",
]
