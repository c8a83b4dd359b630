"""Horizontal sharding: a simulated cluster over the single-node stack.

The paper benchmarks a single-site object server; this package scales
the same simulated machinery *out*.  A Derby database is partitioned
across N :class:`ShardNode` instances — each a complete single-node
stack (own disk, server buffer, lock manager, WAL) over its slice — and
a coordinator plans distributed queries and commits distributed
transactions on its own timeline:

* :mod:`repro.dist.partition` — hash / range partitioning of the
  provider extent, with patients co-located with their provider;
* :class:`ShardNode` / :class:`ShardedCluster` — the nodes and the
  coordinator's clock, decision log and RPC cost accounting
  (:func:`load_sharded` builds the whole thing);
* :class:`ExchangeOperator` — a Volcano operator merging per-shard
  cursors with virtual parallelism (a drain costs the *slowest* shard,
  not the sum);
* :class:`Coordinator` — query-shipping plans: aggregate
  decomposition, order-by / distinct / limit recombination;
* :class:`DistTransaction` — presumed-abort two-phase commit on the
  per-shard WALs, with in-doubt branches resolved against the
  coordinator's durable decision records at recovery;
* :class:`GlobalLockTable` — cross-shard deadlock detection by unioning
  the per-shard waits-for graphs;
* :class:`ShardedWorkload` — deterministic multi-client mixes over the
  cluster, driven by the same session loop and reported in the same
  :class:`~repro.service.MixReport` as the single-server mixer;
* :mod:`repro.dist.chaos` — the :data:`TWOPC` (cluster crash at all
  five protocol points) and :data:`FAILOVER` (primary kills under
  sync and async replication) chaos suites, run by the shared harness in
  :mod:`repro.recovery.harness` (``python -m repro chaos --suite
  {2pc,failover}``).
"""

from repro.dist.chaos import FAILOVER, TWOPC
from repro.dist.cluster import ShardedCluster, load_sharded
from repro.dist.coordinator import Coordinator, DistPlan
from repro.dist.deadlock import GlobalLockTable
from repro.dist.exchange import ExchangeOperator, coordinator_context
from repro.dist.failure import HEALTH_STATES, FailureDetector, NodeHealth
from repro.dist.node import ShardNode
from repro.dist.partition import (
    PARTITION_SCHEMES,
    PartitionMap,
    RouteTable,
    hash_shard,
    range_shard,
    split_logical,
)
from repro.dist.replication import (
    REPLICATION_KILL_POINTS,
    SHIP_MODES,
    ReplicaLink,
    ReplicationInjector,
)
from repro.dist.twopc import (
    TWOPC_CRASH_POINTS,
    DistTransaction,
    TwoPCInjector,
)
from repro.dist.workload import (
    ShardedMixConfig,
    ShardedWorkload,
    sharded_table,
)

__all__ = [
    "PARTITION_SCHEMES",
    "PartitionMap",
    "hash_shard",
    "range_shard",
    "split_logical",
    "ShardNode",
    "ShardedCluster",
    "load_sharded",
    "GlobalLockTable",
    "TWOPC_CRASH_POINTS",
    "DistTransaction",
    "TwoPCInjector",
    "ExchangeOperator",
    "coordinator_context",
    "Coordinator",
    "DistPlan",
    "ShardedMixConfig",
    "ShardedWorkload",
    "sharded_table",
    "TWOPC",
    "RouteTable",
    "HEALTH_STATES",
    "FailureDetector",
    "NodeHealth",
    "SHIP_MODES",
    "REPLICATION_KILL_POINTS",
    "ReplicaLink",
    "ReplicationInjector",
    "FAILOVER",
]
