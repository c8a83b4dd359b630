"""Benchmark-result storage — the paper's Figure 3 schema, self-hosted.

"After messing around in this fashion for some time, we realized that a
database was a very reasonable place to store information" (Section 3.3).
This package stores every experiment as a ``Stat`` object — with its
``Query``, ``Extent`` and ``System`` companions — inside an instance of
*this library's own object database*, and provides the query helpers,
export tools (CSV, gnuplot) and tables the paper built around it.
"""

from repro.stats.export import (
    mix_to_csv,
    records_to_csv,
    to_csv,
    to_gnuplot,
)
from repro.stats.report import Table
from repro.stats.schema import build_stats_schema
from repro.stats.store import StatRow, StatsDatabase

__all__ = [
    "build_stats_schema",
    "StatsDatabase",
    "StatRow",
    "Table",
    "to_csv",
    "to_gnuplot",
    "mix_to_csv",
    "records_to_csv",
]
