"""The cost model the paper set out to elicit.

Every formula mirrors the mechanism the simulator implements (and the
paper measured): page reads through a bounded client cache, handle
get/unreference traffic, hash-table sizes from Figure 10's model with OS
paging beyond the memory budget, rid sorts, and transactional result
construction.  Where the simulator has a price or a memory rule (the
sort price, the swap and spill rules, the spill pass, the handle touch
fraction, the rid-pair size) the formula calls it, not a copy.  The
optimizer ranks plans with these estimates; the benchmark harness can
then compare the estimate against the simulated measurement (the
validation loop the paper never got to close).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.hash_table import chj_table_bytes, phj_table_bytes
from repro.exec.sorter import RID_PAIR_BYTES
from repro.objects.handle import TOUCH_FRACTION
from repro.simtime import CostParams, spilled_bytes, swapped_fraction
from repro.units import MS_PER_S, US_PER_S


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated cost of one physical plan."""

    seconds: float
    description: str


@dataclass(frozen=True)
class JoinStats:
    """Statistics one tree-join costing needs (from the catalog)."""

    n_parents: int
    n_children: int
    parent_pages: int
    child_pages: int
    parent_leaves: int
    child_leaves: int
    sel_parents: float           # fraction in [0, 1]
    sel_children: float
    avg_children: float
    children_with_parents: bool  # composition-style co-location
    child_index_clustering: float
    parent_index_clustering: float
    parent_set_chunks: float     # overflow chunk records per parent (0 if inline)


def distinct_draws(n: float, k: float) -> float:
    """Cardenas's formula: the expected distinct values among ``k``
    uniform draws from ``n``."""
    return n * (1.0 - (1.0 - 1.0 / max(1, n)) ** k)


class CostModel:
    """Cost formulas parameterized by the machine's :class:`CostParams`."""

    def __init__(self, params: CostParams):
        self.params = params
        self.cache_pages = params.memory.client_cache_pages

    # -- primitive terms ---------------------------------------------------

    def page_s(self, pages: float) -> float:
        """Seconds to pull ``pages`` cold pages up to the client."""
        p = self.params
        per_page_ms = p.page_read_ms + p.page_transfer_ms + p.rpc_overhead_ms
        return max(0.0, pages) * per_page_ms / MS_PER_S

    def handle_s(self, n: float, touch_fraction: float = 0.0) -> float:
        """Seconds of handle traffic for ``n`` object accesses; a
        ``touch_fraction`` of them merely re-reference a live handle."""
        p = self.params
        full = (p.handle_get_us + p.handle_unref_us) / US_PER_S
        touch = (p.handle_get_us * TOUCH_FRACTION + p.handle_unref_us) / US_PER_S
        return n * ((1 - touch_fraction) * full + touch_fraction * touch)

    def result_s(self, rows: float) -> float:
        return max(0.0, rows) * self.params.result_append_txn_us / US_PER_S

    def spill_s(self, spilled: float) -> float:
        """Seconds of one write+read pass over ``spilled`` bytes (a
        fraction of a page counts as that fraction)."""
        p = self.params
        return p.spill_ms(spilled / p.memory.page_size) / MS_PER_S

    def hash_s(self, inserts: float, probes: float, table_bytes: float) -> float:
        """CPU plus expected OS-paging cost of a query hash table: every
        touch pays the fault on the final table's paged-out fraction."""
        p = self.params
        cpu = (inserts * p.hash_insert_us + probes * p.hash_probe_us) / US_PER_S
        fraction = swapped_fraction(table_bytes, p.memory.query_memory_bytes)
        return cpu + (inserts + probes) * fraction * p.swap_fault_ms / MS_PER_S

    # -- access-pattern page counts ------------------------------------------

    def random_fetch_pages(self, accesses: float, file_pages: int) -> float:
        """Expected page reads for ``accesses`` uniform random object
        accesses against a file of ``file_pages`` pages through the
        client cache: distinct pages fault once; re-touches miss at the
        steady-state rate 1 - cache/file."""
        if file_pages <= 0 or accesses <= 0:
            return 0.0
        distinct = distinct_draws(file_pages, accesses)
        retouches = max(0.0, accesses - distinct)
        if file_pages <= self.cache_pages:
            return distinct
        miss = 1.0 - self.cache_pages / file_pages
        return distinct + retouches * miss

    def sorted_fetch_pages(
        self, accesses: float, total_objects: float, file_pages: int,
        clustering: float,
    ) -> float:
        """Page reads for a *rid-sorted* fetch of ``accesses`` objects
        (the join algorithms' access discipline): every needed page is
        read at most once.  A clustered key touches a contiguous
        fraction of the file; an unclustered one touches the expected
        number of distinct pages."""
        if total_objects <= 0 or file_pages <= 0 or accesses <= 0:
            return 0.0
        contiguous = (accesses / total_objects) * file_pages
        spread = distinct_draws(file_pages, accesses)
        weight = max(0.0, min(1.0, (clustering - 0.5) / 0.5))
        return weight * contiguous + (1 - weight) * spread

    # -- selection plans (Figures 6-8) ----------------------------------------

    def selection_scan(
        self, n_objects: int, file_pages: int, extent_pages: int, sel: float
    ) -> PlanEstimate:
        io = self.page_s(file_pages + extent_pages)
        cpu = self.handle_s(n_objects) + n_objects * (
            self.params.attr_decode_us + self.params.predicate_us
        ) / US_PER_S
        res = self.result_s(sel * n_objects)
        return PlanEstimate(io + cpu + res, "sequential scan")

    def selection_index(
        self,
        n_objects: int,
        file_pages: int,
        leaves: int,
        sel: float,
        clustering: float,
        sorted_rids: bool,
    ) -> PlanEstimate:
        k = sel * n_objects
        leaf_io = self.page_s(sel * leaves)
        if sorted_rids or clustering > 0.9:
            # Fetch in physical order: at most every distinct page, once.
            distinct = distinct_draws(file_pages, k)
            fetch_io = self.page_s(min(distinct, file_pages))
        else:
            fetch_io = self.page_s(self.random_fetch_pages(k, file_pages))
        sort = self.params.sort_us(k) / US_PER_S if sorted_rids else 0.0
        cpu = self.handle_s(k) + k * self.params.attr_decode_us / US_PER_S
        res = self.result_s(k)
        name = "sorted index scan" if sorted_rids else "index scan"
        return PlanEstimate(leaf_io + fetch_io + sort + cpu + res, name)

    def selection_index_only(
        self, n_objects: int, leaves: int, sel: float
    ) -> PlanEstimate:
        """An aggregate answered from index entries alone
        (:class:`~repro.exec.operators.transforms.IndexOnlyAggregate`):
        scan the qualifying leaf range, one comparison per entry, one
        result row, and never fetch an object."""
        k = sel * n_objects
        io = self.page_s(sel * leaves)
        cpu = k * self.params.compare_us / US_PER_S
        res = self.result_s(1)
        return PlanEstimate(io + cpu + res, "index-only aggregate")

    # -- tree-join plans (Section 5) ----------------------------------------

    def _result_rows(self, s: JoinStats) -> float:
        return s.sel_parents * s.sel_children * s.n_children

    @staticmethod
    def _hit_parents(s: JoinStats) -> float:
        """Selected parents with at least one selected child (prob.
        ``1 - (1 - sel_c)^avg``): the ones a children-first join loads."""
        return s.sel_parents * s.n_parents * (
            1.0 - (1.0 - s.sel_children) ** max(1.0, s.avg_children)
        )

    def join_nl(self, s: JoinStats) -> PlanEstimate:
        k_parents = s.sel_parents * s.n_parents
        children_visited = k_parents * s.avg_children
        io = self.page_s(s.sel_parents * s.parent_leaves)
        io += self.page_s(
            self.sorted_fetch_pages(
                k_parents, s.n_parents, s.parent_pages, s.parent_index_clustering
            )
        )
        io += self.page_s(k_parents * s.parent_set_chunks)
        if not s.children_with_parents:
            io += self.page_s(
                self.random_fetch_pages(children_visited, s.child_pages)
            )
        cpu = self.handle_s(k_parents) + self.handle_s(children_visited)
        cpu += children_visited * (
            self.params.attr_decode_us + self.params.predicate_us
        ) / US_PER_S
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + cpu + res, "NL")

    def join_nojoin(self, s: JoinStats) -> PlanEstimate:
        k_children = s.sel_children * s.n_children
        io = self.page_s(s.sel_children * s.child_leaves)
        io += self.page_s(
            self.sorted_fetch_pages(
                k_children, s.n_children, s.child_pages, s.child_index_clustering
            )
        )
        if not s.children_with_parents:
            io += self.page_s(self.random_fetch_pages(k_children, s.parent_pages))
        distinct_parents = distinct_draws(s.n_parents, k_children)
        touch_fraction = max(0.0, 1.0 - distinct_parents / max(1.0, k_children))
        cpu = self.handle_s(k_children)
        cpu += self.handle_s(k_children, touch_fraction=touch_fraction)
        cpu += k_children * (
            self.params.attr_decode_us + self.params.predicate_us
        ) / US_PER_S
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + cpu + res, "NOJOIN")

    def _both_sides_io(self, s: JoinStats) -> float:
        """Sequential index-driven reads of both selected sides (shared
        by the hash joins)."""
        io = self.page_s(s.sel_parents * s.parent_leaves)
        io += self.page_s(s.sel_children * s.child_leaves)
        io += self.page_s(
            self.sorted_fetch_pages(
                s.sel_parents * s.n_parents,
                s.n_parents,
                s.parent_pages,
                s.parent_index_clustering,
            )
        )
        io += self.page_s(
            self.sorted_fetch_pages(
                s.sel_children * s.n_children,
                s.n_children,
                s.child_pages,
                s.child_index_clustering,
            )
        )
        return io

    def join_phj(self, s: JoinStats) -> PlanEstimate:
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        table = self.hash_s(
            k_parents, k_children, phj_table_bytes(int(k_parents))
        )
        cpu = self.handle_s(k_parents) + self.handle_s(k_children)
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + table + cpu + res, "PHJ")

    def join_chj(self, s: JoinStats) -> PlanEstimate:
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        # Buckets materialize lazily: only parents that actually receive
        # a selected child occupy directory space.
        touched_buckets = distinct_draws(s.n_parents, k_children)
        table = self.hash_s(
            k_children,
            k_parents,
            chj_table_bytes(int(touched_buckets), int(k_children)),
        )
        cpu = self.handle_s(k_children) + self.handle_s(self._hit_parents(s))
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + table + cpu + res, "CHJ")

    def join_hybrid(self, s: JoinStats) -> PlanEstimate:
        """Hybrid-hash PHJ: the swap penalty is replaced by one
        write+read pass over the spilled partition bytes."""
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        table_bytes = phj_table_bytes(int(k_parents))
        cpu_table = self.hash_s(k_parents, k_children, 0)  # no thrash
        build = spilled_bytes(table_bytes, self.params.memory.query_memory_bytes)
        fraction = build / table_bytes if build else 0.0
        spill = self.spill_s(
            table_bytes * fraction + RID_PAIR_BYTES * k_children * fraction
        )
        cpu = self.handle_s(k_parents) + self.handle_s(k_children)
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + cpu_table + spill + cpu + res, "PHJ-HYBRID")

    def join_smj(self, s: JoinStats) -> PlanEstimate:
        """Sort-merge pointer join: both inputs materialized and sorted
        by parent rid; memory overflow spills sequential runs."""
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        p = self.params
        sort = p.sort_us(k_children) / US_PER_S + p.sort_us(k_parents) / US_PER_S
        # One working set for both inputs, unlike the operator's two
        # sorts (a deliberate approximation).
        spill = self.spill_s(spilled_bytes(
            RID_PAIR_BYTES * (k_children + k_parents), p.memory.query_memory_bytes
        ))
        merge = (k_children + k_parents) * p.compare_us / US_PER_S
        cpu = self.handle_s(k_children) + self.handle_s(self._hit_parents(s))
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(io + sort + spill + merge + cpu + res, "SMJ")

    def join_estimates(
        self, s: JoinStats, include_extensions: bool = False
    ) -> dict[str, PlanEstimate]:
        estimates = {
            "NL": self.join_nl(s),
            "NOJOIN": self.join_nojoin(s),
            "PHJ": self.join_phj(s),
            "CHJ": self.join_chj(s),
        }
        if include_extensions:
            estimates["PHJ-HYBRID"] = self.join_hybrid(s)
            estimates["SMJ"] = self.join_smj(s)
        return estimates
