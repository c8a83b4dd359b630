"""Query execution: scans, hash tables, sorting, and the paper's joins.

Section 5 of the paper compares four pointer-based algorithms for the
tree query

    select f(p, pa)
    from p in Providers, pa in p.clients
    where pa.mrn < k1 and p.upin < k2

* **NL** — parent-to-child navigation,
* **NOJOIN** — child-to-parent navigation ("the join is hidden within
  the navigation pattern"),
* **PHJ** — hash the parents and join,
* **CHJ** — hash the children and join (the paper's sequential-outer
  variation of Shekita & Carey's pointer-based hash join [14]).

We also implement the sort-merge pointer join the paper tried and
dropped, and the hybrid-hash variant it names as the obvious next step
but never tested, plus the Section 4 selection scans (standard scan,
unclustered index scan, *sorted* unclustered index scan — Figure 8).

Execution is pipelined: every algorithm is a pull-based batched
operator in :mod:`repro.exec.operators`.  :data:`ALGORITHMS`,
:func:`select_scan` and :func:`select_indexed` drain those same
operators into full row lists for the figures and the benchmark
harnesses.
"""

from repro.exec.hash_table import QueryHashTable, chj_table_bytes, phj_table_bytes
from repro.exec.operators import (
    ALGORITHMS,
    DEFAULT_BATCH_SIZE,
    Cursor,
    Operator,
    PipelineContext,
    PipelineStats,
    SelectionResult,
    TreeJoinQuery,
    select_indexed,
    select_scan,
)
from repro.exec.sorter import sort_charged

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Cursor",
    "Operator",
    "PipelineContext",
    "PipelineStats",
    "QueryHashTable",
    "phj_table_bytes",
    "chj_table_bytes",
    "sort_charged",
    "SelectionResult",
    "select_scan",
    "select_indexed",
    "TreeJoinQuery",
    "ALGORITHMS",
]
