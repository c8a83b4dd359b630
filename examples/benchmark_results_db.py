#!/usr/bin/env python
"""Eat the paper's dog food: store benchmark results in a database.

Section 3.3: "Large Benchmark Equals Many Numbers: Why Not Use a
Database?"  This example runs a small grid of the paper's experiments,
stores every run as a ``Stat`` object (Figure 3 schema) in an instance
of *this library's own object database*, then answers questions with the
query helpers and exports gnuplot input — the workflow the paper built
by hand with YAT.

Run:  python examples/benchmark_results_db.py
"""

from __future__ import annotations

from repro.bench import ExperimentRunner
from repro.bench.figures import PAPER_ALGORITHMS
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.stats import StatsDatabase, to_csv, to_gnuplot


def main() -> None:
    stats = StatsDatabase()

    for clustering in (Clustering.CLASS, Clustering.COMPOSITION):
        config = DerbyConfig.db_1to3(scale=0.002, clustering=clustering)
        print(f"Loading 1:3 database with {clustering.value} clustering...")
        derby = load_derby(config)
        stats.record("Extent", {"classname": "Provider", "size": config.n_providers})
        stats.record("Extent", {"classname": "Patient", "size": config.n_patients})
        runner = ExperimentRunner(derby, stats)
        for sel_pat, sel_prov in ((10, 10), (90, 90)):
            for algo in PAPER_ALGORITHMS:
                runner.run_join(algo, sel_pat, sel_prov)

    print(f"\n{len(stats)} Stat objects persisted "
          f"({stats.db.disk.total_pages()} pages on the simulated disk)\n")

    # "a query language can be used to extract the information you are
    # looking for"
    print("Q: which algorithm won each (clustering, selectivity) cell?")
    for clustering in ("class", "composition"):
        for sel in (10, 90):
            best = stats.best_algorithm(clustering, sel, sel)
            assert best is not None
            print(f"  {clustering:12s} sel {sel:2d}/{sel:2d}: "
                  f"{best.algo:7s} ({best.elapsed_s:9.2f} s)")

    print("\nQ: how did NL behave across clusterings?")
    for row in stats.rows(algo="NL"):
        print(f"  {row.cluster:12s} sel {row.selectivity:2d}: "
              f"{row.elapsed_s:9.2f} s, {row.d2sc_pages:6d} pages, "
              f"cc miss {row.cc_missrate}%")

    print("\nCSV export (first 3 lines):")
    print("\n".join(to_csv(stats.rows()).splitlines()[:3]))

    print("\nGnuplot export (elapsed vs selectivity, one block per algo):")
    dat = to_gnuplot(
        [r for r in stats.rows(cluster="class")],
        x="selectivity",
        y="elapsed_s",
        series="algo",
    )
    print("\n".join(dat.splitlines()[:8]))


if __name__ == "__main__":
    main()
