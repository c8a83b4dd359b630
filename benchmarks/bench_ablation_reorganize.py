"""Clustering decay and dump-and-reload — Section 2's maintenance note,
measured.

"In O2 this kind of clustering can be specified, but is not guaranteed.
It may be necessary to dump and reload the database once in a while to
maintain a reasonable cluster."
"""

from __future__ import annotations

from repro.bench import ExperimentRunner
from repro.stats import Table
from repro.cluster import dump_and_reload, load_derby, register_new_patients
from repro.derby import DerbyConfig
from repro.derby.config import Clustering


def test_churn_then_reorganize(save_table):
    config = DerbyConfig.db_1to1000(
        scale=0.005, clustering=Clustering.COMPOSITION
    )
    derby = load_derby(config)
    runner = ExperimentRunner(derby)
    pristine = runner.run_join("NL", 90, 90)
    churn = register_new_patients(derby, round(config.n_patients * 0.5))
    fragmented = runner.run_join("NL", 90, 90)
    fresh, reorg = dump_and_reload(derby)
    restored = ExperimentRunner(fresh).run_join("NL", 90, 90)

    table = Table(
        "Composition clustering under churn, then dump-and-reload "
        f"(NL at 90/90, scale {config.scale:g})",
        ["Stage", "NL time (sec)", "Rows", "Notes"],
    )
    table.add("pristine", pristine.elapsed_s, pristine.rows, "")
    table.add(
        "after +50% churn",
        fragmented.elapsed_s,
        fragmented.rows,
        f"{churn.records_moved} providers relocated",
    )
    table.add(
        "after dump+reload",
        restored.elapsed_s,
        restored.rows,
        f"dump {reorg.dump_seconds:.1f}s + reload "
        f"{reorg.reload_seconds:.1f}s",
    )
    save_table("ablation_churn_reorganize", table)

    # Per-row navigation cost: decays under churn, restored by reload.
    per_row = lambda m: m.elapsed_s / max(1, m.rows)  # noqa: E731
    assert per_row(fragmented) > 1.1 * per_row(pristine)
    assert per_row(restored) < 0.9 * per_row(fragmented)
