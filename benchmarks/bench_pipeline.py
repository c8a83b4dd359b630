"""Pipelined execution: batch size vs latency, memory and interleaving.

The operator pipeline (``repro.exec.operators``) trades three currencies
against the batch size:

* **time-to-first-row** — a streaming consumer sees rows after one batch
  (plus any blocking prefix such as a sort or hash build), so smaller
  batches surface results sooner;
* **peak live rows** — bounded by ``batch_size x tree depth`` for
  streaming plans, so smaller batches cap the pipeline's memory;
* **scheduler interleaving** — the query service yields the baton at
  every batch boundary (``CooperativeScheduler.batch_point``), so
  smaller batches interleave a multi-client mix more finely.

Two sweeps, both deterministic:

* a **single-client sweep** over one selection on the 1:1000 database:
  full drain vs ``limit 10`` early exit, per batch size — total cost is
  batch-size *invariant* (the equivalence guarantee) while
  time-to-first-row, peak rows and the early-exit I/O are not;
* a **mix sweep**: the same navigator/scanner/updater mix per batch
  size — commits/aborts stay identical while batch yields rise as
  batches shrink.

Results land in ``results/pipeline_batch_sweep.txt``.  Run with
``python -m pytest benchmarks/bench_pipeline.py``.
"""

from __future__ import annotations

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.oql import Catalog, OQLEngine
from repro.service import MixConfig, WorkloadMixer

BATCH_SIZES = (8, 32, 128, 512)
SCALE = 0.01
MIX_CLIENTS = 6
MIX_OPS = 2
MIX_SEED = 7


# -- single-client sweep: TTFR and early exit -------------------------------

def run_query_sweep(derby) -> Table:
    """Drain vs ``limit 10`` for one selection, per batch size."""
    catalog = Catalog.from_derby(derby)
    threshold = derby.config.num_threshold(50)
    full_q = f"select p.age from p in Patients where p.num > {threshold}"
    limit_q = full_q + " limit 10"

    table = Table(
        "Batch size vs TTFR / peak rows / limit early-exit "
        f"({derby.config.n_patients} patients, num > 50%)",
        ["Batch", "Query", "Rows", "Elapsed (s)", "First row (ms)",
         "Peak rows", "Disk reads"],
    )
    for batch_size in BATCH_SIZES:
        engine = OQLEngine(catalog, batch_size=batch_size)
        for label, q in (("full", full_q), ("limit 10", limit_q)):
            derby.start_cold_run()
            start_s = derby.db.clock.elapsed_s
            reads_before = derby.db.counters.snapshot().disk_reads
            rows = engine.execute(q)
            stats = engine.last_stats
            table.add(
                batch_size, label, len(rows),
                derby.db.clock.elapsed_s - start_s,
                stats.first_row_ms, stats.peak_rows,
                derby.db.counters.snapshot().disk_reads - reads_before,
            )
    table.note(
        "full-drain elapsed is batch-size invariant (cost equivalence); "
        "first-row time and peak rows scale with the batch; limit 10 "
        "stops after one batch of the scan"
    )
    return table


# -- mix sweep: interleaving at batch boundaries ----------------------------

def run_mix_sweep(derby) -> Table:
    """The same deterministic mix per batch size."""
    table = Table(
        f"Batch size vs mix interleaving ({MIX_CLIENTS} clients, "
        f"{MIX_OPS} ops each, seed {MIX_SEED})",
        ["Batch", "Committed", "Aborted", "Deadlocks", "Elapsed (s)",
         "Batch yields", "Ctx switches", "Scan first row (ms)",
         "Peak rows"],
    )
    for batch_size in BATCH_SIZES:
        config = MixConfig.from_clients(
            MIX_CLIENTS,
            ops_per_client=MIX_OPS,
            seed=MIX_SEED,
            batch_size=batch_size,
        )
        mixer = WorkloadMixer(derby, config)
        report = mixer.run()
        scanners = [s for s in report.sessions if s.profile == "scanner"]
        first_row_ms = (
            sum(s.metrics.mean_first_row_ms for s in scanners)
            / len(scanners)
        )
        table.add(
            batch_size, report.committed, report.aborted, report.deadlocks,
            report.elapsed_s, mixer.service.scheduler.batch_yields,
            report.context_switches, first_row_ms,
            max(s.metrics.peak_rows for s in report.sessions),
        )
    table.note(
        "smaller batches -> more batch-boundary yields and finer "
        "interleaving; commit/abort outcomes are batch-size independent"
    )
    return table


def test_pipeline_batch_sweep(save_table):
    derby = load_derby(DerbyConfig.db_1to1000(scale=SCALE))
    query_table = run_query_sweep(derby)
    mix_table = run_mix_sweep(derby)
    save_table("pipeline_batch_sweep", f"{query_table}\n\n{mix_table}\n")

    rows = query_table.rows
    full = {r[0]: r for r in rows if r[1] == "full"}
    limited = {r[0]: r for r in rows if r[1] == "limit 10"}
    # Full-drain cost is batch-size invariant (the equivalence guarantee).
    elapsed = {f"{full[b][3]:.9f}" for b in BATCH_SIZES}
    assert len(elapsed) == 1, f"full-drain elapsed varied: {elapsed}"
    for b in BATCH_SIZES:
        # limit 10 exits early: strictly cheaper than the full drain.
        assert limited[b][3] < full[b][3]
        assert limited[b][6] < full[b][6]
    # Smaller batches buffer fewer live rows at the high-water mark.
    assert full[BATCH_SIZES[0]][5] < full[BATCH_SIZES[-1]][5]
    # The mix interleaves more finely as batches shrink, with the same
    # transactional outcome.
    mix = {r[0]: r for r in mix_table.rows}
    assert mix[BATCH_SIZES[0]][5] > mix[BATCH_SIZES[-1]][5]
    assert len({mix[b][1] for b in BATCH_SIZES}) == 1
