"""The experiment runner.

Executes one measured query the way the paper ran all of its tests:
**cold** — caches emptied, meters zeroed — and records the outcome as a
``Stat`` in the Figure 3 results database.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.loader import DerbyDatabase
from repro.errors import BenchError
from repro.exec import (
    ALGORITHMS,
    TreeJoinQuery,
    select_indexed,
    select_scan,
)
from repro.simtime import MeterSnapshot
from repro.stats import StatsDatabase


@dataclass(frozen=True)
class JoinMeasurement:
    """One measured run of the Section 5 tree query."""

    algo: str
    clustering: str
    sel_patients: int
    sel_providers: int
    elapsed_s: float
    rows: int
    meters: MeterSnapshot
    breakdown: dict[str, float]


@dataclass(frozen=True)
class SelectionMeasurement:
    """One measured run of the Section 4 selection."""

    method: str          # "scan" | "index" | "sorted-index"
    selectivity_pct: float
    elapsed_s: float
    rows: int
    page_reads: int
    meters: MeterSnapshot
    breakdown: dict[str, float]


class ExperimentRunner:
    """Runs cold experiments against one loaded Derby database."""

    def __init__(self, derby: DerbyDatabase, stats: StatsDatabase | None = None):
        self.derby = derby
        self.stats = stats

    # -- Section 5: the tree query -------------------------------------------

    def tree_query(self, sel_patients: int, sel_providers: int) -> TreeJoinQuery:
        config = self.derby.config
        return TreeJoinQuery(
            db=self.derby.db,
            parent_index=self.derby.by_upin,
            child_index=self.derby.by_mrn,
            parent_high=config.upin_threshold(sel_providers),
            child_high=config.mrn_threshold(sel_patients),
            n_parents=config.n_providers,
        )

    def run_join(
        self, algo: str, sel_patients: int, sel_providers: int,
        cold: bool = True,
    ) -> JoinMeasurement:
        """One run of one algorithm at one selectivity pair.

        ``cold=True`` (the paper's protocol) empties both caches and the
        handle table first; ``cold=False`` keeps them warm — the
        main-memory-navigation regime object benchmarks optimize for
        (paper, Section 4.4) — and only zeroes the meters.
        """
        if algo not in ALGORITHMS:
            raise BenchError(
                f"unknown algorithm {algo!r}; have {sorted(ALGORITHMS)}"
            )
        derby = self.derby
        if cold:
            derby.start_cold_run()
        else:
            derby.db.reset_meters()
        rows = ALGORITHMS[algo](self.tree_query(sel_patients, sel_providers))
        measurement = JoinMeasurement(
            algo=algo,
            clustering=derby.config.clustering.value,
            sel_patients=sel_patients,
            sel_providers=sel_providers,
            elapsed_s=derby.db.clock.elapsed_s,
            rows=len(rows),
            meters=derby.db.counters.snapshot(),
            breakdown=derby.db.clock.breakdown(),
        )
        self._record(
            algo,
            measurement.elapsed_s,
            measurement.meters,
            sel_patients,
            sel_providers,
        )
        return measurement

    def run_join_grid(
        self, algorithms: tuple[str, ...], grid: tuple[tuple[int, int], ...]
    ) -> list[JoinMeasurement]:
        return [
            self.run_join(algo, sel_pat, sel_prov)
            for sel_pat, sel_prov in grid
            for algo in algorithms
        ]

    # -- Section 4: selections ------------------------------------------------

    def run_selection(
        self, method: str, selectivity_pct: float, project: str = "age"
    ) -> SelectionMeasurement:
        """One cold run of ``select p.<project> from Patients where
        num > k``."""
        derby = self.derby
        k = derby.config.num_threshold(selectivity_pct)
        derby.start_cold_run()
        if method == "scan":
            result = select_scan(
                derby.db, derby.patients, "num", lambda v: v > k, project
            )
        elif method in ("index", "sorted-index"):
            result = select_indexed(
                derby.db,
                derby.by_num,
                k,
                None,
                project,
                sorted_rids=(method == "sorted-index"),
                include_low=False,
            )
        else:
            raise BenchError(f"unknown selection method {method!r}")
        measurement = SelectionMeasurement(
            method=method,
            selectivity_pct=selectivity_pct,
            elapsed_s=derby.db.clock.elapsed_s,
            rows=result.selected,
            page_reads=derby.db.counters.disk_reads,
            meters=derby.db.counters.snapshot(),
            breakdown=derby.db.clock.breakdown(),
        )
        self._record(
            f"select/{method}",
            measurement.elapsed_s,
            measurement.meters,
            int(selectivity_pct),
            0,
        )
        return measurement

    # -- internals ----------------------------------------------------------------

    def _record(
        self,
        algo: str,
        elapsed_s: float,
        meters: MeterSnapshot,
        selectivity: int,
        selectivity_parents: int,
    ) -> None:
        if self.stats is None:
            return
        memory = self.derby.config.params.memory
        self.stats.record_experiment(
            algo=algo,
            cluster=self.derby.config.clustering.value,
            elapsed_s=elapsed_s,
            meters=meters,
            selectivity=selectivity,
            selectivity_parents=selectivity_parents,
            server_cache_bytes=memory.server_cache_bytes,
            client_cache_bytes=memory.client_cache_bytes,
        )
