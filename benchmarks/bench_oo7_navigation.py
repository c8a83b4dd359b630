"""The paper's closing claim, measured end to end.

"Our conclusion is that O2's performance on associative accesses could
be greatly improved without hurting those of main memory navigation"
(Section 1/4.4).  Two workloads, four handle regimes:

* **OO7 T1 warm** — the main-memory navigation object benchmarks (and
  O2's handle design) optimize for;
* **Derby cold 90 % selection** — the associative access the paper found
  wanting.

Every proposed cure must leave the first untouched and improve the
second.
"""

from __future__ import annotations

from repro.bench import ExperimentRunner
from repro.stats import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.objects.handle import HandleMode
from repro.oo7 import build_oo7, traversal_t1


def test_cures_help_associative_not_navigation(save_table):
    rows = {}
    for mode in HandleMode:
        # Warm OO7 navigation.
        oo7 = build_oo7(handle_mode=mode)
        oo7.start_cold_run()
        traversal_t1(oo7)
        warm_before = oo7.db.clock.elapsed_s
        traversal_t1(oo7)
        warm_t1 = oo7.db.clock.elapsed_s - warm_before
        # Cold associative selection.
        derby = load_derby(
            DerbyConfig.db_1to1000(scale=0.005), handle_mode=mode
        )
        runner = ExperimentRunner(derby)
        cold = runner.run_selection("scan", 90, project="name").elapsed_s
        rows[mode] = (warm_t1, cold)

    table = Table(
        "Handle regimes: warm OO7 T1 navigation vs cold 90% selection (sec)",
        ["Handle mode", "OO7 T1 warm", "Cold selection", "Selection gain"],
    )
    full_warm, full_cold = rows[HandleMode.FULL]
    for mode, (warm, cold) in rows.items():
        table.add(mode.value, warm, cold, full_cold / cold)
    table.note("The paper's conclusion: cures must improve the associative")
    table.note("column without degrading the navigation column.")
    save_table("oo7_navigation_vs_associative", table)

    for mode, (warm, cold) in rows.items():
        if mode is HandleMode.FULL:
            continue
        assert warm <= full_warm * 1.01, f"{mode} hurt warm navigation"
        assert cold < full_cold, f"{mode} did not help associative access"
    # Bulk allocation is the biggest associative win.
    assert rows[HandleMode.BULK][1] < full_cold * 0.95
