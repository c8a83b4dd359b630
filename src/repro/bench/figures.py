"""One builder per paper figure, one registry that says what each
figure is, one driver that builds them.

Each builder runs the experiments it needs through an
:class:`~repro.bench.runner.ExperimentRunner` (always cold, as in the
paper) and renders a :class:`~repro.bench.report.Table` in the layout of
the corresponding figure.  Simulated times at scale *s* correspond to
roughly *s* x the paper's seconds; the ratio columns are scale-free.

:data:`FIGURES` is the only place that names a figure's database and its
file under ``results/``; :class:`FigureDriver` builds its entries holding
one database at a time, as the paper's authors had to (Section 3: one
disk could not hold them all).  ``python -m repro figures`` and
``benchmarks/`` are callers of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.bench.report import Table
from repro.bench.runner import ExperimentRunner, JoinMeasurement
from repro.bench.workloads import (
    SELECTIVITY_GRID,
    figure6_selectivities,
    figure7_selectivities,
)
from repro.cluster import DerbyDatabase, load_derby
from repro.derby import DerbyConfig
from repro.exec.hash_table import QueryHashTable, chj_table_bytes, phj_table_bytes
from repro.objects.handle import HandleMode
from repro.simtime import Bucket
from repro.simtime.host import collect_garbage
from repro.units import MB

#: The four algorithms of the paper's Section 5 figures.
PAPER_ALGORITHMS = ("NL", "NOJOIN", "PHJ", "CHJ")

#: Figure 15's rows and column groups.
RELATIONSHIPS = ("1:1000", "1:3")
ORGANIZATIONS = ("random", "class", "composition")


# ------------------------------------------------------------------ fig 4/5

def figure4_rids_vs_handles(
    runner: ExperimentRunner, selectivity_pct: int = 60
) -> Table:
    """Section 4.1: a hash table of selected patients keyed by provider,
    storing full Handles (pins a 60+ byte structure per element) versus
    storing Rids (8 bytes, re-fetch on use)."""
    derby = runner.derby
    config = derby.config
    k = config.mrn_threshold(selectivity_pct)
    om = derby.db.manager
    table = Table(
        f"Figure 4/5 — Hash table payloads: Rids or Handles? "
        f"(selectivity {selectivity_pct}%, scale {config.scale:g})",
        ["Payload", "Entry bytes", "Table MB", "Build+use time (sec)"],
    )
    for payload, entry_bytes in (("Handles", 60 + 64), ("Rids", 8)):
        derby.start_cold_run()
        hash_table = QueryHashTable(
            derby.db.clock, derby.db.params, derby.db.counters, entry_bytes
        )
        for __, rid in derby.by_mrn.range_scan(None, k, include_high=False):
            if payload == "Handles":
                # The handle stays referenced (pinned) inside the table.
                handle = om.load(rid)
                owner = om.get_attr(handle, "primary_care_provider")
                hash_table.insert(owner, handle)
            else:
                with om.borrow(rid) as handle:
                    owner = om.get_attr(handle, "primary_care_provider")
                hash_table.insert(owner, rid)
        # Use phase: touch every entry once (e.g. to build f(p, pa)).
        for key in list(hash_table._table):
            for item in hash_table.probe_all(key):
                if payload == "Handles":
                    om.get_attr(item, "age")
                else:
                    om.get_attr_at(item, "age")
        table.add(
            payload,
            entry_bytes,
            hash_table.table_bytes / MB,
            derby.db.clock.elapsed_s,
        )
    table.note("Handles pin every selected object in client memory;")
    table.note("Rids re-fetch through the (warm) cache on use.")
    return table


# ------------------------------------------------------------------ fig 6

def figure6(runner: ExperimentRunner) -> Table:
    """Section 4.2: selection with an unclustered index vs no index —
    page reads and elapsed time across selectivities."""
    config = runner.derby.config
    table = Table(
        f"Figure 6 — Unclustered index vs no index on Patients.num "
        f"({config.n_patients} patients, scale {config.scale:g})",
        [
            "Selectivity %",
            "Index: pages",
            "Index: time (sec)",
            "No index: pages",
            "No index: time (sec)",
        ],
    )
    for sel in figure6_selectivities():
        indexed = runner.run_selection("index", sel)
        scanned = runner.run_selection("scan", sel)
        table.add(
            sel,
            indexed.page_reads,
            indexed.elapsed_s,
            scanned.page_reads,
            scanned.elapsed_s,
        )
    table.note("Without an index the page count is selectivity-independent;")
    table.note("the unclustered index reads MORE pages past a few percent.")
    return table


# ------------------------------------------------------------------ fig 7

def figure7(runner: ExperimentRunner) -> Table:
    """Section 4.2, Figure 7: sorted unclustered index scan vs no index."""
    config = runner.derby.config
    table = Table(
        f"Figure 7 — Sorted unclustered index vs no index "
        f"(time in sec, scale {config.scale:g})",
        ["Selectivity on Patients", "Unclustered index + Sort", "No index"],
    )
    for sel in figure7_selectivities():
        sorted_scan = runner.run_selection("sorted-index", sel)
        scan = runner.run_selection("scan", sel)
        table.add(sel, sorted_scan.elapsed_s, scan.elapsed_s)
    return table


# ------------------------------------------------------------------ fig 9

_FIG9_BUCKETS = (
    ("Input/Output", (Bucket.IO, Bucket.TRANSFER, Bucket.RPC)),
    ("Handles (get & unref)", (Bucket.HANDLE,)),
    ("Sort rids", (Bucket.SORT,)),
    ("Other CPU (compare/decode)", (Bucket.CPU,)),
    ("Result construction", (Bucket.RESULT,)),
)


def figure9(runner: ExperimentRunner, selectivity_pct: int = 90) -> Table:
    """Section 4.3, Figure 9: where the time goes — standard scan vs
    sorted index scan, measured bucket by bucket."""
    scan = runner.run_selection("scan", selectivity_pct)
    sorted_scan = runner.run_selection("sorted-index", selectivity_pct)
    table = Table(
        f"Figure 9 — Standard scan vs sorted index scan: cost "
        f"decomposition at {selectivity_pct}% selectivity (sec)",
        ["Cost component", "Standard scan", "Sorted index scan"],
    )
    for label, buckets in _FIG9_BUCKETS:
        table.add(
            label,
            sum(scan.breakdown.get(b.value, 0.0) for b in buckets),
            sum(sorted_scan.breakdown.get(b.value, 0.0) for b in buckets),
        )
    table.add("TOTAL", scan.elapsed_s, sorted_scan.elapsed_s)
    table.note("The standard scan gets+unrefs a handle for the WHOLE")
    table.note("collection; the index scan only for selected elements.")
    return table


# ------------------------------------------------------------------ fig 10

_FIG10_ROWS = (
    # algo, n_providers, relationship, sel_patients, sel_providers
    ("PHJ", 2_000, "1:1000", 10, 10),
    ("PHJ", 2_000, "1:1000", 90, 90),
    ("PHJ", 1_000_000, "1:3", 10, 10),
    ("PHJ", 1_000_000, "1:3", 90, 90),
    ("CHJ", 2_000, "1:1000", 10, 10),
    ("CHJ", 2_000, "1:1000", 90, 90),
    ("CHJ", 1_000_000, "1:3", 10, 10),
    ("CHJ", 1_000_000, "1:3", 90, 90),
)


def figure10() -> Table:
    """Section 5.1, Figure 10: hash-table size approximations, computed
    from the size model at the paper's full database scale."""
    table = Table(
        "Figure 10 — Approximation of the hash table sizes (MB, full scale)",
        [
            "Algorithm",
            "Providers",
            "Relationship",
            "Sel. patients %",
            "Sel. providers %",
            "Hash table size (MB)",
        ],
    )
    for algo, n_providers, rel, sel_pat, sel_prov in _FIG10_ROWS:
        n_patients = 2_000_000 if rel == "1:1000" else 3_000_000
        if algo == "PHJ":
            size = phj_table_bytes(round(n_providers * sel_prov / 100))
        else:
            size = chj_table_bytes(
                n_providers, round(n_patients * sel_pat / 100)
            )
        # The paper quotes decimal megabytes (0.9M x 64 B = 57.6 MB).
        table.add(algo, n_providers, rel, sel_pat, sel_prov, size / 1e6)
    table.note("Query memory budget is ~40 MB: tables beyond it swap.")
    table.note("CHJ sizes are the paper's over-approximation: the bucket")
    table.note("directory covers the whole parent domain; at run time only")
    table.note("touched buckets materialize.")
    return table


# ------------------------------------------------------------- figs 11-14

def join_figure(
    runner: ExperimentRunner,
    title: str,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
) -> tuple[Table, list[JoinMeasurement]]:
    """Run every algorithm at each selectivity pair of the paper's grid
    (cell by cell, every run cold) and rank the cells under a title that
    names the database."""
    config = runner.derby.config
    measurements = runner.run_join_grid(algorithms, SELECTIVITY_GRID)
    table = rank_table(
        measurements,
        f"{title} ({config.n_providers} providers, {config.n_patients} "
        f"patients, {config.clustering.value} clustering, "
        f"scale {config.scale:g})",
    )
    return table, measurements


def rank_table(
    measurements: list[JoinMeasurement],
    title: str,
    grid: tuple[tuple[int, int], ...] = SELECTIVITY_GRID,
) -> Table:
    """The shared shape of Figures 11-14: for each selectivity pair rank
    the measured algorithms by elapsed time and report time ratios."""
    table = Table(
        title,
        [
            "Sel. patients %",
            "Sel. providers %",
            "Algorithm",
            "Time ratio",
            "Time (sec)",
        ],
    )
    for sel_pat, sel_prov in grid:
        cell = sorted(
            (
                m
                for m in measurements
                if (m.sel_patients, m.sel_providers) == (sel_pat, sel_prov)
            ),
            key=lambda m: m.elapsed_s,
        )
        if not cell:
            continue
        best = cell[0].elapsed_s
        for m in cell:
            table.add(
                sel_pat,
                sel_prov,
                m.algo,
                m.elapsed_s / best if best else 1.0,
                m.elapsed_s,
            )
    return table


def cell_times(
    measurements: list[JoinMeasurement], sel_pat: int, sel_prov: int
) -> dict[str, float]:
    """algo -> elapsed seconds for one selectivity cell."""
    return {
        m.algo: m.elapsed_s
        for m in measurements
        if (m.sel_patients, m.sel_providers) == (sel_pat, sel_prov)
    }


# ------------------------------------------------------------------ fig 15

def figure15(
    results: dict[str, dict[str, list[JoinMeasurement]]]
) -> Table:
    """Section 5.3, Figure 15: per (relationship, selectivity pair), the
    winning algorithm and its time under each physical organization.

    ``results`` maps relationship ("1:1000" / "1:3") to a mapping from
    organization name ("random" / "class" / "composition") to that
    organization's grid measurements.
    """
    table = Table(
        "Figure 15 — Summarizing Results: Winning Algorithms",
        [
            "Rel prov:pat",
            "Sel. pat %",
            "Sel. prov %",
            "Best (random)",
            "Time (random)",
            "Best (class)",
            "Time (class)",
            "Best (comp.)",
            "Time (comp.)",
        ],
    )
    for rel in RELATIONSHIPS:
        by_org = results.get(rel, {})
        for sel_pat, sel_prov in SELECTIVITY_GRID:
            row: list[object] = [rel, sel_pat, sel_prov]
            for org in ORGANIZATIONS:
                best = _best_for_cell(by_org.get(org, []), sel_pat, sel_prov)
                if best is None:
                    row.extend(["-", "-"])
                else:
                    row.extend([best.algo, best.elapsed_s])
            table.add(*row)
    return table


def _best_for_cell(
    measurements: list[JoinMeasurement], sel_pat: int, sel_prov: int
) -> JoinMeasurement | None:
    cell = [
        m
        for m in measurements
        if m.sel_patients == sel_pat and m.sel_providers == sel_prov
    ]
    if not cell:
        return None
    return min(cell, key=lambda m: m.elapsed_s)


def join_cost_breakdown(
    runner: ExperimentRunner,
    sel_patients: int,
    sel_providers: int,
) -> Table:
    """Per-bucket decomposition of each of the paper's algorithms at one
    cell — the Figure 9 treatment applied to the Section 5 joins."""
    config = runner.derby.config
    buckets = ("io", "transfer", "rpc", "handle", "sort", "cpu", "swap",
               "result")
    table = Table(
        f"Join cost decomposition at {sel_patients}/{sel_providers} "
        f"({config.clustering.value}, {config.n_providers}p/"
        f"{config.n_patients}c, sec)",
        ["Algorithm", *buckets, "TOTAL"],
    )
    for algo in PAPER_ALGORITHMS:
        m = runner.run_join(algo, sel_patients, sel_providers)
        table.add(
            algo,
            *(m.breakdown.get(bucket, 0.0) for bucket in buckets),
            m.elapsed_s,
        )
    return table


def warm_vs_cold_figure(
    runner: ExperimentRunner, sel_patients: int = 10, sel_providers: int = 10
) -> Table:
    """Cold (the paper's protocol) vs warm (main-memory navigation —
    what object benchmarks like OO7 emphasize, §4.4) runs per algorithm."""
    table = Table(
        f"Cold vs warm runs at {sel_patients}/{sel_providers} (sec)",
        ["Algorithm", "Cold", "Warm", "Cold/Warm"],
    )
    for algo in PAPER_ALGORITHMS:
        cold = runner.run_join(algo, sel_patients, sel_providers, cold=True)
        warm = runner.run_join(algo, sel_patients, sel_providers, cold=False)
        ratio = cold.elapsed_s / warm.elapsed_s if warm.elapsed_s else 0.0
        table.add(algo, cold.elapsed_s, warm.elapsed_s, ratio)
    table.note("Warm runs reuse both cache tiers and parked handles —")
    table.note("the regime O2's handle design was optimized for.")
    return table


# ---------------------------------------------------------------- ablations

def handle_modes_figure(
    runner: ExperimentRunner, selectivity_pct: int = 90
) -> Table:
    """Section 4.4 ablation: the Figure 7 workloads under each proposed
    handle improvement."""
    table = Table(
        f"Section 4.4 — Handle regimes on the {selectivity_pct}% selection "
        "(projecting a string attribute; sec)",
        ["Handle mode", "Standard scan", "Sorted index scan"],
    )
    handles = runner.derby.db.handles
    original = handles.mode
    try:
        for mode in HandleMode:
            handles.mode = mode
            # Project a string so literal handles matter (strings are
            # separate records carrying handles in O2 — Section 4.4).
            scan = runner.run_selection("scan", selectivity_pct, project="name")
            sorted_scan = runner.run_selection(
                "sorted-index", selectivity_pct, project="name"
            )
            table.add(mode.value, scan.elapsed_s, sorted_scan.elapsed_s)
    finally:
        handles.mode = original
    return table


def extensions_figure(runner: ExperimentRunner) -> tuple[Table, list[JoinMeasurement]]:
    """Section 5/6 extensions: the dropped sort-merge join and the
    untested hybrid-hash variant next to the paper's four."""
    return join_figure(
        runner,
        "Extensions — SMJ (dropped) and hybrid hashing (untested) included",
        algorithms=PAPER_ALGORITHMS + ("SMJ", "PHJ-HYBRID"),
    )


# ------------------------------------------------------- registry and driver

@dataclass(frozen=True)
class Figure:
    """What one table of the paper is."""

    #: File name under ``results/``, without the ``.txt``.
    stem: str
    #: ``(relationship, organization)`` of the database it is measured
    #: on; ``None`` when it needs none or, with ``grid``, all of them.
    database: tuple[str, str] | None
    #: Builder: over no argument, an :class:`ExperimentRunner` or, with
    #: ``grid``, the Section 5 grid measurements.
    build: Callable[..., Table]
    #: Consumes the sixteen cold runs of ``PAPER_ALGORITHMS`` x
    #: ``SELECTIVITY_GRID`` in place of a live database.
    grid: bool = False


_CLASS_1TO1000 = ("1:1000", "class")

#: Every table of the paper we regenerate, ordered so that figures
#: measured on one database are adjacent (Figure 10 needs none).
FIGURES: dict[str, Figure] = {
    "fig04": Figure(
        "figure04_rids_vs_handles", _CLASS_1TO1000,
        partial(figure4_rids_vs_handles, selectivity_pct=90),
    ),
    "fig06": Figure("figure06_selection_index", _CLASS_1TO1000, figure6),
    "fig07": Figure("figure07_sorted_index", _CLASS_1TO1000, figure7),
    "fig09": Figure("figure09_cost_decomposition", _CLASS_1TO1000, figure9),
    "fig10": Figure("figure10_hash_sizes", None, figure10),
    "fig11": Figure(
        "figure11_class_1to1000", _CLASS_1TO1000,
        partial(rank_table, title="Figure 11 — One file per Class, 1:1000"),
        grid=True,
    ),
    "handles": Figure(
        "ablation_handle_modes", _CLASS_1TO1000, handle_modes_figure
    ),
    "fig12": Figure(
        "figure12_class_1to3", ("1:3", "class"),
        partial(rank_table, title="Figure 12 — One file per Class, 1:3"),
        grid=True,
    ),
    "fig13": Figure(
        "figure13_comp_1to1000", ("1:1000", "composition"),
        partial(rank_table, title="Figure 13 — Composition Cluster, 1:1000"),
        grid=True,
    ),
    "fig14": Figure(
        "figure14_comp_1to3", ("1:3", "composition"),
        partial(rank_table, title="Figure 14 — Composition Cluster, 1:3"),
        grid=True,
    ),
    "fig15": Figure("figure15_summary", None, figure15, grid=True),
}


class FigureDriver:
    """Builds :data:`FIGURES` entries with one database alive at a time.

    The database asked for last is the only one held; it is dropped
    before the next is loaded.  What outlives a database is its grid of
    sixteen measurements, which Figures 11-15 and the paper-agreement
    scores share.
    """

    def __init__(self, scale: float | None = None):
        self.scale = scale
        self._slot: tuple[tuple[str, str], DerbyDatabase] | None = None
        self._grids: dict[tuple[str, str], list[JoinMeasurement]] = {}

    def derby(self, relationship: str, organization: str) -> DerbyDatabase:
        """The loaded database; whichever was held before is let go."""
        key = (relationship, organization)
        if self._slot is None or self._slot[0] != key:
            # Free the old one before building the next; its object graph
            # is cyclic, so dropping the reference alone frees nothing.
            self._slot = None
            collect_garbage()
            config = DerbyConfig.paper_db(relationship, organization, self.scale)
            self._slot = (key, load_derby(config))
        return self._slot[1]

    def grid(self, relationship: str, organization: str) -> list[JoinMeasurement]:
        """The Section 5 grid on that database, run once and kept."""
        key = (relationship, organization)
        if key not in self._grids:
            runner = ExperimentRunner(self.derby(relationship, organization))
            self._grids[key] = runner.run_join_grid(
                PAPER_ALGORITHMS, SELECTIVITY_GRID
            )
        return self._grids[key]

    def build(self, name: str) -> tuple[Table, object]:
        """Build one figure: its table and, for the figures made from
        grids, the measurements the table was ranked from."""
        figure = FIGURES[name]
        if figure.grid:
            if figure.database is not None:
                measured = self.grid(*figure.database)
            else:
                measured = {
                    rel: {org: self.grid(rel, org) for org in ORGANIZATIONS}
                    for rel in RELATIONSHIPS
                }
            return figure.build(measured), measured
        if figure.database is None:
            return figure.build(), None
        runner = ExperimentRunner(self.derby(*figure.database))
        return figure.build(runner), None
