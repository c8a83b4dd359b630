"""Multi-client throughput: the workload the paper never ran.

The paper measures every query as a single cold client (Section 2's
shutdown-between-runs discipline).  This benchmark drives the new
query service instead: N concurrent sessions — navigators, scanners and
updaters dealt round-robin — contend for one shared server cache and one
lock table.  Two sweeps:

* **client count** (1, 2, 8, 32): aggregate throughput and how it decays
  as sessions steal server-cache frames from each other and queue on the
  hot-set locks;
* **server-cache size** at a fixed 8 clients: the multi-client analogue
  of the paper's Section 3.2 cache-size observation — more shared cache,
  fewer disk reads, more transactions per simulated second.

Results land in ``results/multiclient_throughput.txt``.
"""

from __future__ import annotations

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.service import MixConfig, WorkloadMixer

import pytest

CLIENT_COUNTS = (1, 2, 8, 32)
SERVER_CACHE_PAGES = (2, 32, 256)
OPS_PER_CLIENT = 2
SEED = 11
SCALE = 0.005


@pytest.fixture(scope="module")
def mix_derby():
    """A dedicated small database (the mixes mutate patient ages, so we
    do not share the figure benchmarks' cached databases)."""
    return load_derby(DerbyConfig.db_1to1000(scale=SCALE))


def _run_mix(derby, clients: int, server_cache_pages: int | None):
    config = MixConfig.from_clients(
        clients,
        ops_per_client=OPS_PER_CLIENT,
        seed=SEED,
        server_cache_pages=server_cache_pages,
    )
    return WorkloadMixer(derby, config).run()


def test_throughput_vs_client_count(mix_derby, save_table):
    reports = {n: _run_mix(mix_derby, n, None) for n in CLIENT_COUNTS}

    table = Table(
        "Aggregate throughput vs client count "
        f"(default server cache, {OPS_PER_CLIENT} ops/client)",
        ["Clients", "Committed", "Aborted", "Deadlocks", "Timeouts",
         "Elapsed (s)", "Txn/s", "Disk reads", "Lock wait (s)"],
    )
    for n in CLIENT_COUNTS:
        r = reports[n]
        wait = sum(s.metrics.lock_wait_s for s in r.sessions)
        reads = sum(s.metrics.meters.disk_reads for s in r.sessions)
        table.add(n, r.committed, r.aborted, r.deadlocks, r.timeouts,
                  r.elapsed_s, r.throughput_ops_s, reads, wait)
    table.note("one shared server cache + lock table; deterministic "
               "round-robin interleaving at page-fault/lock boundaries")
    save_table("multiclient_throughput", table)

    # Work scales with clients; the timeline must stretch accordingly.
    assert reports[32].elapsed_s > reports[8].elapsed_s > reports[1].elapsed_s
    # Everyone eventually commits their ops (retries absorb aborts).
    for n in CLIENT_COUNTS:
        assert reports[n].committed == n * OPS_PER_CLIENT
    # Throughput must actually vary with the client count: contention
    # for the shared tiers is visible, not hidden by perfect scaling.
    rates = [reports[n].throughput_ops_s for n in CLIENT_COUNTS]
    assert max(rates) / min(rates) > 1.05


def test_throughput_vs_server_cache(mix_derby, save_table):
    clients = 8
    reports = {
        pages: _run_mix(mix_derby, clients, pages)
        for pages in SERVER_CACHE_PAGES
    }

    table = Table(
        f"Aggregate throughput vs server-cache size ({clients} clients)",
        ["Server pages", "Committed", "Elapsed (s)", "Txn/s", "Disk reads"],
    )
    for pages in SERVER_CACHE_PAGES:
        r = reports[pages]
        reads = sum(s.metrics.meters.disk_reads for s in r.sessions)
        table.add(pages, r.committed, r.elapsed_s, r.throughput_ops_s, reads)
    save_table("multiclient_cache_sweep", table)

    small, large = SERVER_CACHE_PAGES[0], SERVER_CACHE_PAGES[-1]
    reads_small = sum(
        s.metrics.meters.disk_reads for s in reports[small].sessions
    )
    reads_large = sum(
        s.metrics.meters.disk_reads for s in reports[large].sessions
    )
    # A bigger shared cache absorbs the cross-session re-reads.
    assert reads_large < reads_small
    assert (
        reports[large].throughput_ops_s > reports[small].throughput_ops_s
    )
