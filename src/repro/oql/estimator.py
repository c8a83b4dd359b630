"""Cardinality and selectivity estimation for the planner.

The estimator is the bridge between ANALYZE output
(:class:`~repro.opt.collector.TableStats`) and the planner: it answers
"what fraction of this extent satisfies this predicate" and "what does
this parent/child join look like" in the vocabulary the simtime
:class:`~repro.oql.cost.CostModel` consumes (:class:`JoinStats`).

``stats`` is ``None`` until an ``analyze`` statement installs some.
Estimates degrade gracefully: with no histogram for an attribute it
falls back to the index's leaf-directory interpolation, with no index
either to textbook default selectivities, and with no fan-out
statistics to the catalog's children-per-parent ratio.  Conjunctions
multiply under the usual independence assumption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.index.btree import BTreeIndex
from repro.objects.codec import INLINE_SET_LIMIT_BYTES
from repro.objects.database import CHUNK_RIDS
from repro.oql.catalog import Catalog, RelationshipInfo
from repro.oql.cost import JoinStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.opt.collector import AttributeStats, TableStats
    from repro.oql.optimizer import SargablePredicate

#: Defaults when neither histogram nor index covers an attribute.
DEFAULT_EQ_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


class CardinalityEstimator:
    """Answers row-count and selectivity questions for one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        #: The latest ANALYZE result; ``None`` before the first.
        self.stats: TableStats | None = None

    def install(self, stats: TableStats) -> None:
        """Adopt a fresh ANALYZE result (replaces any previous one)."""
        self.stats = stats

    # -- row counts -------------------------------------------------------

    def collection_rows(self, name: str) -> int:
        extent = self.stats.extent(name) if self.stats is not None else None
        if extent is not None:
            return extent.n_objects
        return self.catalog.collection_size(name)

    # -- predicate selectivity -------------------------------------------

    def _attribute_stats(
        self, collection: str, attr: str
    ) -> AttributeStats | None:
        """The attribute's statistics, when ANALYZE sampled any value."""
        if self.stats is None:
            return None
        extent = self.stats.extent(collection)
        stats = extent.attribute(attr) if extent is not None else None
        return stats if stats is not None and stats.histogram.n else None

    def selectivity(self, collection: str, pred: SargablePredicate) -> float:
        """Fraction of ``collection`` satisfying ``pred``."""
        if pred.op == "!=":
            return max(0.0, 1.0 - self._eq_selectivity(collection, pred))
        attr = self._attribute_stats(collection, pred.attr)
        if attr is None:
            return self._fallback(collection, pred)
        return attr.histogram.selectivity(*pred.bounds())

    def _eq_selectivity(self, collection: str, pred: SargablePredicate) -> float:
        attr = self._attribute_stats(collection, pred.attr)
        if attr is None:
            return DEFAULT_EQ_SELECTIVITY
        return attr.histogram.eq_fraction()

    def _fallback(self, collection: str, pred: SargablePredicate) -> float:
        index = self.catalog.index_for(collection, pred.attr)
        if index is not None:
            low, high, __, ___ = pred.bounds()
            return index.selectivity(low, high)
        if pred.op == "=":
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def conjunct_selectivity(
        self, collection: str, predicates: tuple[SargablePredicate, ...]
    ) -> float:
        """Independence-assumption product over a conjunction."""
        sel = 1.0
        for pred in predicates:
            sel *= self.selectivity(collection, pred)
        return sel

    # -- associations -----------------------------------------------------

    def fanout(self, rel: RelationshipInfo) -> float:
        """Average children per parent along ``rel``."""
        stats = (
            self.stats.fanout(rel.parent_collection, rel.set_attr)
            if self.stats is not None else None
        )
        if stats is not None and stats.sampled:
            return stats.avg_children
        n_parents = self.collection_rows(rel.parent_collection)
        return self.collection_rows(rel.child_collection) / max(1, n_parents)

    def join_stats(
        self,
        rel: RelationshipInfo,
        parent_index: BTreeIndex,
        child_index: BTreeIndex,
        parent_pred: SargablePredicate,
        child_pred: SargablePredicate,
    ) -> JoinStats:
        """The cost model's input for a parent/child tree join."""
        n_parents = self.collection_rows(rel.parent_collection)
        n_children = self.collection_rows(rel.child_collection)
        avg_children = self.fanout(rel)
        set_bytes = avg_children * 8
        parent_set_chunks = (
            0.0 if set_bytes <= INLINE_SET_LIMIT_BYTES
            else avg_children / CHUNK_RIDS
        )
        return JoinStats(
            n_parents=n_parents,
            n_children=n_children,
            parent_pages=self.catalog.file_pages(rel.parent_collection),
            child_pages=self.catalog.file_pages(rel.child_collection),
            parent_leaves=parent_index.leaf_count,
            child_leaves=child_index.leaf_count,
            sel_parents=self.selectivity(rel.parent_collection, parent_pred),
            sel_children=self.selectivity(rel.child_collection, child_pred),
            avg_children=avg_children,
            children_with_parents=rel.children_with_parents,
            child_index_clustering=child_index.clustering_ratio,
            parent_index_clustering=parent_index.clustering_ratio,
            parent_set_chunks=parent_set_chunks,
        )
