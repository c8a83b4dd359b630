"""The experiment runner.

Executes one measured query the way the paper ran all of its tests:
**cold** — caches emptied, meters zeroed — and records the outcome as a
``Stat`` in the Figure 3 results database.  Every cell is OQL text
planned with the cell's join algorithm or access path forced and run as
a statement of one :class:`~repro.service.Session`, attached for the
runner's whole life: the statement path of every mix, and the tier that
a cold restart made from outside the runner empties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workloads import selection_query_text, tree_query_text
from repro.cluster.loader import DerbyDatabase
from repro.errors import BenchError
from repro.exec import ALGORITHMS
from repro.service import QueryService
from repro.simtime import MeterSnapshot
from repro.stats import StatsDatabase

#: The Section 4 access paths, as the planner's alternatives name them.
_SELECTION_METHODS = ("scan", "index", "sorted-index")


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
        self.service = QueryService(derby)
        self.session = self.service.open_session()
        self.service.attach(self.session)

    # -- Section 5: the tree query -------------------------------------------

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
        text = tree_query_text(derby.config, sel_patients, sel_providers)
        if cold:
            derby.start_cold_run()
        else:
            derby.db.reset_meters()
        rows = self._run(text, algo)
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
            text,
            measurement.elapsed_s,
            measurement.meters,
            sel_patients,
            sel_providers,
            cold=cold,
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
        """One cold run of ``select p.<project> from p in Patients where
        p.num > k`` by ``scan``, ``index`` or ``sorted-index``."""
        if method not in _SELECTION_METHODS:
            raise BenchError(f"unknown selection method {method!r}")
        derby = self.derby
        text = selection_query_text(derby.config, selectivity_pct, project)
        derby.start_cold_run()
        rows = self._run(text, method)
        measurement = SelectionMeasurement(
            method=method,
            selectivity_pct=selectivity_pct,
            elapsed_s=derby.db.clock.elapsed_s,
            rows=len(rows),
            page_reads=derby.db.counters.disk_reads,
            meters=derby.db.counters.snapshot(),
            breakdown=derby.db.clock.breakdown(),
        )
        self._record(
            f"select/{method}",
            text,
            measurement.elapsed_s,
            measurement.meters,
            int(selectivity_pct),
            0,
            cold=True,
        )
        return measurement

    # -- internals ----------------------------------------------------------------

    def _run(self, text: str, force: str) -> list:
        """Every row of ``text`` under the plan that ``force`` names."""
        return self.session.execute(self.session.engine.plan(text, force=force))

    def _record(
        self,
        algo: str,
        text: str,
        elapsed_s: float,
        meters: MeterSnapshot,
        selectivity: int,
        selectivity_parents: int,
        cold: bool,
    ) -> None:
        if self.stats is None:
            return
        memory = self.derby.config.params.memory
        self.stats.record_experiment(
            algo=algo,
            cluster=self.derby.config.clustering.value,
            elapsed_s=elapsed_s,
            meters=meters,
            text=text,
            selectivity=selectivity,
            selectivity_parents=selectivity_parents,
            cold=cold,
            server_cache_bytes=memory.server_cache_bytes,
            client_cache_bytes=memory.client_cache_bytes,
        )
