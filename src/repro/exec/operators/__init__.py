"""Pull-based, batched operator trees — the execution pipeline.

See :mod:`repro.exec.operators.base` for the protocol and the cost
discipline that keeps streaming equivalent to the old materializing
executors, and docs/architecture.md ("Operator pipeline") for the
picture.
"""

from repro.exec.operators.base import (
    DEFAULT_BATCH_SIZE,
    SKIP,
    Cursor,
    Operator,
    PipelineContext,
    PipelineStats,
)
from repro.exec.operators.joins import (
    ALGORITHMS,
    JOIN_OPERATORS,
    HashChildrenJoin,
    HashParentsJoin,
    HybridHashParentsJoin,
    NavigationChildToParent,
    NavigationParentToChild,
    SortMergeJoin,
    TreeJoinOperator,
    TreeJoinQuery,
)
from repro.exec.operators.scans import (
    CollectionScan,
    Fetch,
    IndexScan,
)
from repro.exec.operators.transforms import (
    Distinct,
    FetchingAggregate,
    IndexOnlyAggregate,
    Limit,
    Map,
    Sort,
    finish_aggregate,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SKIP",
    "Cursor",
    "Operator",
    "PipelineContext",
    "PipelineStats",
    "CollectionScan",
    "IndexScan",
    "Fetch",
    "Map",
    "Limit",
    "Distinct",
    "Sort",
    "IndexOnlyAggregate",
    "FetchingAggregate",
    "finish_aggregate",
    "TreeJoinQuery",
    "TreeJoinOperator",
    "NavigationParentToChild",
    "NavigationChildToParent",
    "HashParentsJoin",
    "HashChildrenJoin",
    "SortMergeJoin",
    "HybridHashParentsJoin",
    "JOIN_OPERATORS",
    "ALGORITHMS",
]
