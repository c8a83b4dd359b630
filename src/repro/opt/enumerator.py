"""The cost-based planner: statistics-driven plan enumeration.

:class:`CostBasedOptimizer` extends the heuristic
:class:`~repro.oql.optimizer.Optimizer` along the axes the paper's
optimizer project called for:

* **selections** — instead of committing to the single best-selectivity
  indexed predicate, it enumerates *every* applicable index × access
  path (unsorted and rid-sorted index scan) against the full scan, and
  costs each candidate with histogram selectivities instead of the
  index's leaf-directory guess;
* **tree joins** — the six join strategies (NL, NOJOIN, PHJ, CHJ, and
  with extensions PHJ-HYBRID and SMJ) are costed from
  :class:`~repro.opt.estimator.CardinalityEstimator`-supplied
  :class:`~repro.oql.cost.JoinStats`, i.e. from measured fan-out and
  histogram selectivities rather than catalog ratios.  Which side
  drives (join order) is implicit in the strategy: NL/NOJOIN descend
  parent→child, the hash variants build on the cheaper filtered side.

The search objective is the same simtime :class:`CostModel` the
benchmarks measure, so a plan's estimated seconds and its executed
seconds live on one scale — that is what ``explain`` prints and what
``bench_optimizer`` scores.

Plans come out as ordinary :class:`SelectionPlan` / :class:`TreeJoinPlan`
objects; the engine compiles them with no knowledge of which planner
chose them.

There is one enumeration and one plan builder, in
:meth:`Optimizer._plan_selection` / ``_plan_tree_join``; this class is
the hooks it calls — three that swap the source of statistics
(``_predicate_selectivity``, ``_output_selectivity``, ``_join_stats``)
and three that widen the search (``_drivers``, ``_label``,
``_index_only_estimate``).
"""

from __future__ import annotations

from repro.index.btree import BTreeIndex
from repro.oql.catalog import Catalog
from repro.oql.optimizer import Optimizer, SargablePredicate
from repro.opt.collector import TableStats
from repro.opt.estimator import CardinalityEstimator


class CostBasedOptimizer(Optimizer):
    """Statistics-fed plan enumeration; heuristic behavior until the
    first ANALYZE installs statistics."""

    def __init__(
        self,
        catalog: Catalog,
        include_extensions: bool = False,
        stats: TableStats | None = None,
    ):
        super().__init__(catalog, include_extensions)
        self.estimator = CardinalityEstimator(catalog, stats)

    # -- statistics lifecycle --------------------------------------------

    @property
    def table_stats(self) -> TableStats:
        return self.estimator.stats

    def install_stats(self, stats: TableStats) -> None:
        self.estimator.install(stats)

    # -- hook overrides ---------------------------------------------------

    def _predicate_selectivity(
        self, collection_name: str, pred: SargablePredicate,
        index: BTreeIndex,
    ) -> float:
        return self.estimator.selectivity(collection_name, pred)

    def _output_selectivity(self, collection_name, parts, best) -> float:
        return self.estimator.conjunct_selectivity(
            collection_name, parts.predicates
        )

    def _drivers(self, candidates, best):
        """Every indexed sargable conjunct, not just the best."""
        return candidates

    def _label(self, kind: str, pred: SargablePredicate) -> str:
        return f"{kind}({pred.attr})"

    def _index_only_estimate(self, n, driver, index_scan):
        pred, index, sel = driver
        return (
            self._label("index-only", pred),
            self.cost.selection_index_only(n, index.leaf_count, sel),
        )

    def _join_stats(self, rel, parent_index, child_index,
                    parent_pred, child_pred):
        return self.estimator.join_stats(
            rel, parent_index, child_index, parent_pred, child_pred
        )
