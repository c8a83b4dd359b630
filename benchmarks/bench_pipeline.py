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

Results land in ``results/pipeline_batch_sweep.txt``.  Run standalone
with ``python benchmarks/bench_pipeline.py [--smoke]`` (no pytest
needed) or through pytest for the benchmark harness.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.oql import Catalog, OQLEngine
from repro.service import MixConfig, WorkloadMixer

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

BATCH_SIZES = (8, 32, 128, 512)
SMOKE_BATCH_SIZES = (8, 128)
SCALE = 0.01
SMOKE_SCALE = 0.002
MIX_CLIENTS = 6
MIX_OPS = 2
MIX_SEED = 7


def _fresh_derby(scale: float):
    return load_derby(DerbyConfig.db_1to1000(scale=scale))


# -- single-client sweep: TTFR and early exit -------------------------------

def run_query_sweep(derby, batch_sizes) -> Table:
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
    for batch_size in batch_sizes:
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

def run_mix_sweep(derby, batch_sizes) -> Table:
    """The same deterministic mix per batch size."""
    table = Table(
        f"Batch size vs mix interleaving ({MIX_CLIENTS} clients, "
        f"{MIX_OPS} ops each, seed {MIX_SEED})",
        ["Batch", "Committed", "Aborted", "Deadlocks", "Elapsed (s)",
         "Batch yields", "Ctx switches", "Scan first row (ms)",
         "Peak rows"],
    )
    for batch_size in batch_sizes:
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


# -- pytest harness ---------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_derby():
    return _fresh_derby(SCALE)


def test_pipeline_batch_sweep(benchmark, pipeline_derby, save_table):
    tables = benchmark.pedantic(
        lambda: (
            run_query_sweep(pipeline_derby, BATCH_SIZES),
            run_mix_sweep(pipeline_derby, BATCH_SIZES),
        ),
        rounds=1,
        iterations=1,
    )
    query_table, mix_table = tables
    save_table("pipeline_batch_sweep", _render(query_table, mix_table))
    _check_tables(query_table, mix_table, BATCH_SIZES)


def _render(query_table: Table, mix_table: Table) -> str:
    """The bytes of results/pipeline_batch_sweep.txt, whichever entry
    point writes it."""
    return f"{query_table}\n\n{mix_table}\n"


def _check_tables(query_table: Table, mix_table: Table, batch_sizes) -> None:
    rows = query_table.rows
    full = {r[0]: r for r in rows if r[1] == "full"}
    limited = {r[0]: r for r in rows if r[1] == "limit 10"}
    # Full-drain cost is batch-size invariant (the equivalence guarantee).
    elapsed = {f"{full[b][3]:.9f}" for b in batch_sizes}
    assert len(elapsed) == 1, f"full-drain elapsed varied: {elapsed}"
    for b in batch_sizes:
        # limit 10 exits early: strictly cheaper than the full drain.
        assert limited[b][3] < full[b][3]
        assert limited[b][6] < full[b][6]
    # Smaller batches buffer fewer live rows at the high-water mark.
    assert full[batch_sizes[0]][5] < full[batch_sizes[-1]][5]
    # The mix interleaves more finely as batches shrink, with the same
    # transactional outcome.
    mix = {r[0]: r for r in mix_table.rows}
    assert mix[batch_sizes[0]][5] > mix[batch_sizes[-1]][5]
    assert len({mix[b][1] for b in batch_sizes}) == 1


# -- standalone entry point -------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny database + reduced batch grid (CI)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "pipeline_batch_sweep.txt"),
        help="output path for the rendered tables",
    )
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else SCALE
    batch_sizes = SMOKE_BATCH_SIZES if args.smoke else BATCH_SIZES
    print(f"loading 1:1000 database at scale {scale} ...", file=sys.stderr)
    derby = _fresh_derby(scale)
    query_table = run_query_sweep(derby, batch_sizes)
    mix_table = run_mix_sweep(derby, batch_sizes)
    _check_tables(query_table, mix_table, batch_sizes)
    text = _render(query_table, mix_table)
    print(text, end="")
    out = pathlib.Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
