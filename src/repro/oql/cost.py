"""The cost model the paper set out to elicit.

Every formula mirrors the mechanism the simulator implements (and the
paper measured): page reads through a bounded client cache, handle
get/unreference traffic, hash-table sizes from Figure 10's model with OS
paging beyond the memory budget, rid sorts, and transactional result
construction.  The optimizer ranks plans with these estimates; the
benchmark harness can then compare the estimate against the simulated
measurement (the validation loop the paper never got to close).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exec.hash_table import chj_table_bytes, phj_table_bytes
from repro.simtime import CostParams
from repro.units import MS_PER_S, US_PER_S


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated cost of one physical plan."""

    seconds: float
    description: str
    breakdown: dict[str, float] = field(default_factory=dict)


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
        touch = (p.handle_get_us * 0.1 + p.handle_unref_us) / US_PER_S
        return n * ((1 - touch_fraction) * full + touch_fraction * touch)

    def result_s(self, rows: float) -> float:
        return max(0.0, rows) * self.params.result_append_txn_us / US_PER_S

    def sort_s(self, n: float) -> float:
        if n < 2:
            return 0.0
        return self.params.sort_per_element_log_us * n * math.log2(n) / US_PER_S

    def hash_s(self, inserts: float, probes: float, table_bytes: float) -> float:
        """CPU plus expected OS-paging cost of a query hash table."""
        p = self.params
        cpu = (inserts * p.hash_insert_us + probes * p.hash_probe_us) / US_PER_S
        budget = p.memory.query_memory_bytes
        swap = 0.0
        if budget and table_bytes > budget:
            fraction = (table_bytes - budget) / table_bytes
            swap = (inserts + probes) * fraction * p.swap_fault_ms / MS_PER_S
        return cpu + swap

    # -- access-pattern page counts ------------------------------------------

    def random_fetch_pages(self, accesses: float, file_pages: int) -> float:
        """Expected page reads for ``accesses`` uniform random object
        accesses against a file of ``file_pages`` pages through the
        client cache: distinct pages fault once; re-touches miss at the
        steady-state rate 1 - cache/file."""
        if file_pages <= 0 or accesses <= 0:
            return 0.0
        distinct = file_pages * (1.0 - (1.0 - 1.0 / file_pages) ** accesses)
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
        spread = file_pages * (1.0 - (1.0 - 1.0 / file_pages) ** accesses)
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
        return PlanEstimate(
            io + cpu + res,
            "sequential scan",
            {"io": io, "cpu": cpu, "result": res},
        )

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
            distinct = file_pages * (1.0 - (1.0 - 1.0 / max(1, file_pages)) ** k)
            fetch_io = self.page_s(min(distinct, file_pages))
        else:
            fetch_io = self.page_s(self.random_fetch_pages(k, file_pages))
        sort = self.sort_s(k) if sorted_rids else 0.0
        cpu = self.handle_s(k) + k * self.params.attr_decode_us / US_PER_S
        res = self.result_s(k)
        name = "sorted index scan" if sorted_rids else "index scan"
        return PlanEstimate(
            leaf_io + fetch_io + sort + cpu + res,
            name,
            {"io": leaf_io + fetch_io, "sort": sort, "cpu": cpu, "result": res},
        )

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
        return PlanEstimate(
            io + cpu + res,
            "index-only aggregate",
            {"io": io, "cpu": cpu, "result": res},
        )

    # -- tree-join plans (Section 5) ----------------------------------------

    def _result_rows(self, s: JoinStats) -> float:
        return s.sel_parents * s.sel_children * s.n_children

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
        return PlanEstimate(io + cpu + res, "NL", {"io": io, "cpu": cpu, "result": res})

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
        distinct_parents = s.n_parents * (
            1.0 - (1.0 - 1.0 / max(1, s.n_parents)) ** k_children
        )
        touch_fraction = max(0.0, 1.0 - distinct_parents / max(1.0, k_children))
        cpu = self.handle_s(k_children)
        cpu += self.handle_s(k_children, touch_fraction=touch_fraction)
        cpu += k_children * (
            self.params.attr_decode_us + self.params.predicate_us
        ) / US_PER_S
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(
            io + cpu + res, "NOJOIN", {"io": io, "cpu": cpu, "result": res}
        )

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
        return PlanEstimate(
            io + table + cpu + res,
            "PHJ",
            {"io": io, "hash": table, "cpu": cpu, "result": res},
        )

    def join_chj(self, s: JoinStats) -> PlanEstimate:
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        # Buckets materialize lazily: only parents that actually receive
        # a selected child occupy directory space.
        touched_buckets = s.n_parents * (
            1.0 - (1.0 - 1.0 / max(1, s.n_parents)) ** k_children
        )
        table = self.hash_s(
            k_children,
            k_parents,
            chj_table_bytes(int(touched_buckets), int(k_children)),
        )
        # Parents are loaded only when the probe hits: a parent has at
        # least one selected child with prob. 1 - (1 - sel_c)^avg.
        hit_parents = k_parents * (
            1.0 - (1.0 - s.sel_children) ** max(1.0, s.avg_children)
        )
        cpu = self.handle_s(k_children) + self.handle_s(hit_parents)
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(
            io + table + cpu + res,
            "CHJ",
            {"io": io, "hash": table, "cpu": cpu, "result": res},
        )

    def join_hybrid(self, s: JoinStats) -> PlanEstimate:
        """Hybrid-hash PHJ: the swap penalty is replaced by one
        write+read pass over the spilled partition bytes."""
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        table_bytes = phj_table_bytes(int(k_parents))
        cpu_table = self.hash_s(k_parents, k_children, 0)  # no thrash
        budget = self.params.memory.query_memory_bytes
        spill = 0.0
        if budget and table_bytes > budget:
            fraction = (table_bytes - budget) / table_bytes
            spilled_bytes = table_bytes * fraction + 16 * k_children * fraction
            pages = spilled_bytes / self.params.memory.page_size
            spill = pages * (
                self.params.page_write_ms + self.params.page_read_ms
            ) / MS_PER_S
        cpu = self.handle_s(k_parents) + self.handle_s(k_children)
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(
            io + cpu_table + spill + cpu + res,
            "PHJ-HYBRID",
            {"io": io + spill, "hash": cpu_table, "cpu": cpu, "result": res},
        )

    def join_smj(self, s: JoinStats) -> PlanEstimate:
        """Sort-merge pointer join: both inputs materialized and sorted
        by parent rid; memory overflow spills sequential runs."""
        k_parents = s.sel_parents * s.n_parents
        k_children = s.sel_children * s.n_children
        io = self._both_sides_io(s)
        sort = self.sort_s(k_children) + self.sort_s(k_parents)
        budget = self.params.memory.query_memory_bytes
        spill = 0.0
        total_bytes = 16 * (k_children + k_parents)
        if budget and total_bytes > budget:
            pages = (total_bytes - budget) / self.params.memory.page_size
            spill = pages * (
                self.params.page_write_ms + self.params.page_read_ms
            ) / MS_PER_S
        merge = (k_children + k_parents) * self.params.compare_us / US_PER_S
        cpu = self.handle_s(k_children) + self.handle_s(
            k_parents * (1.0 - (1.0 - s.sel_children) ** max(1.0, s.avg_children))
        )
        res = self.result_s(self._result_rows(s))
        return PlanEstimate(
            io + sort + spill + merge + cpu + res,
            "SMJ",
            {"io": io + spill, "sort": sort, "cpu": cpu + merge, "result": res},
        )

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
