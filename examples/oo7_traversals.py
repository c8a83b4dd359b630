#!/usr/bin/env python
"""Running OO7 — the other side of the paper's argument.

The paper's diagnosis: object systems are "tested with object benchmarks
against relational systems and are optimized accordingly", i.e. for
OO7-style warm navigation, while cold associative queries go unmeasured.
This example runs both regimes on the same engine and shows the
Section 4.4 handle cures fixing the associative side without touching
the navigation side.

Run:  python examples/oo7_traversals.py
"""

from __future__ import annotations

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.objects.handle import HandleMode
from repro.oo7 import build_oo7, query_q1, traversal_t1, traversal_t6
from repro.oo7.builder import (
    N_ATOMIC_PARTS,
    N_BASE_ASSEMBLIES,
    N_COMPOSITE_PARTS,
)


def main() -> None:
    oo7 = build_oo7()
    print(f"OO7 module: {N_BASE_ASSEMBLIES} base assemblies, "
          f"{N_COMPOSITE_PARTS} composite parts, "
          f"{N_ATOMIC_PARTS} atomic parts "
          f"({oo7.db.disk.total_pages()} pages)\n")

    # -- the classic OO7 operations ------------------------------------
    oo7.start_cold_run()
    t1_cold = traversal_t1(oo7)
    t1_warm = traversal_t1(oo7)
    warm_seconds = oo7.db.clock.elapsed_s - t1_cold.elapsed_s
    print(f"T1 cold : {t1_cold.elapsed_s:7.3f} s, "
          f"{t1_cold.page_reads} page reads, "
          f"{t1_cold.visited_atomic} atomic parts visited")
    print(f"T1 warm : {warm_seconds:7.3f} s, 0 page reads "
          f"(everything in the client cache)\n")

    oo7.start_cold_run()
    t6 = traversal_t6(oo7)
    print(f"T6      : {t6.elapsed_s:7.3f} s "
          f"(root parts only: {t6.visited_atomic})")
    oo7.start_cold_run()
    found = query_q1(oo7, lookups=20)
    print(f"Q1      : {oo7.db.clock.elapsed_s:7.3f} s "
          f"({found}/20 exact-match lookups)\n")

    # -- the paper's conclusion, measured --------------------------------
    print("Handle regimes: warm OO7 navigation vs cold associative scan")
    print(f"{'mode':18s} {'warm T1 (s)':>12s} {'cold scan (s)':>14s}")
    for mode in HandleMode:
        bench = build_oo7(handle_mode=mode)
        bench.start_cold_run()
        traversal_t1(bench)
        before = bench.db.clock.elapsed_s
        traversal_t1(bench)
        warm = bench.db.clock.elapsed_s - before

        derby = load_derby(DerbyConfig.db_1to1000(scale=0.002),
                           handle_mode=mode)
        cold = ExperimentRunner(derby).run_selection(
            "scan", 90, project="name"
        ).elapsed_s
        print(f"{mode.value:18s} {warm:12.3f} {cold:14.2f}")
    print("\nEvery cure improves the cold associative column without "
          "hurting warm navigation\n— the paper's closing claim.")


if __name__ == "__main__":
    main()
