"""Section 3.2 — loading ablation: the 12-hours-to-5-hours story.

Compares bulk-load configurations on the same logical database:

* transactions on (log + locks + commit flushes) vs the transaction-off
  loading mode;
* indexes declared before population (objects born with header slots)
  vs created afterwards (full rewrite pass, record moves for the first
  index).
"""

from __future__ import annotations

from repro.bench.report import Table
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering


def _load(scale: float, logged: bool, index_first: bool):
    config = DerbyConfig.db_1to3(
        scale=scale,
        clustering=Clustering.CLASS,
        logged_load=logged,
        index_first=index_first,
    )
    return load_derby(config).load_report


def test_loading_ablation(save_table):
    scale = 0.002  # smaller than the figures: four full loads
    reports = {
        (logged, index_first): _load(scale, logged, index_first)
        for logged in (False, True)
        for index_first in (True, False)
    }

    table = Table(
        f"Section 3.2 — Loading ablation (1:3 database, scale {scale:g})",
        [
            "Transactions",
            "Indexes",
            "Load time (sec)",
            "Records moved",
            "Commits",
        ],
    )
    for (logged, index_first), report in sorted(reports.items()):
        table.add(
            "on" if logged else "off",
            "first" if index_first else "after",
            report.seconds,
            report.records_moved,
            report.commits,
        )
    save_table("loading_ablation", table)

    fast = reports[(False, True)]
    slow = reports[(True, False)]
    assert fast.seconds < slow.seconds
    # Indexing after load reallocates objects; indexing first does not.
    assert reports[(False, False)].records_moved > fast.records_moved
    # Transaction-off alone is a clear win at fixed index strategy.
    assert reports[(False, True)].seconds < reports[(True, True)].seconds
