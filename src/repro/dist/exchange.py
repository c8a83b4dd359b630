"""The exchange operator: merging shard cursors onto one timeline.

:class:`ExchangeOperator` is the coordinator's leaf: a Volcano operator
whose "children" are cursors running on the shards.  Rows flow through
the ordinary ``open / next_batch / close`` protocol, so the service
layer's batch-boundary yields work on it unchanged.  The central work
above it is the coordinator's own: re-dedupe, the stable multi-key
sort, strip and re-limit in ``Coordinator._finish_rows``, and aggregate
recombination in ``Coordinator._merge_aggregate``.

**Virtual parallelism.**  Each shard's clock meters the work its cursor
performs; the coordinator models all shards working *concurrently* from
the moment the exchange opens.  For shard *i* it tracks the cumulative
busy time ``B_i`` its pulls have consumed since open time ``t0``; a
batch from shard *i* can only arrive at ``t0 + B_i`` on the
coordinator's timeline, so the pull charges
``max(0, t0 + B_i - now)`` of ``Bucket.REMOTE`` wait.  Pulling
round-robin, the fast shards' batches arrive while the coordinator is
(virtually) waiting on the slow ones, and the elapsed time of a full
drain converges to ``t0 + max_i B_i`` — the slowest shard — instead of
the sum.  That is exactly where sharded scans earn their speed-up, and
with one shard the model degenerates to the single-node timeline
(``B_0`` serialized), which the equivalence tests pin down.

**Wire costs.**  Every pull is one message: a fixed ``Bucket.RPC``
overhead plus ``Bucket.TRANSFER`` for the batch's pages at the same
page-transfer price the client/server wire always charged
(``rows × ROW_WIRE_BYTES`` rounded up to pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError, ShardUnavailableError
from repro.exec.operators.base import Cursor, Operator, PipelineContext
from repro.simtime import Bucket, CostParams, SimClock
from repro.units import PAGE_SIZE, pages_for_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.cluster import ShardedCluster
    from repro.dist.node import ShardNode

_TRANSFER = Bucket.TRANSFER
_RPC = Bucket.RPC
_REMOTE = Bucket.REMOTE

#: Modeled serialized size of one result row on the wire.  Rows are
#: small tuples of scalars; one page carries ~64 of them.
ROW_WIRE_BYTES = 64


@dataclass
class _CoordDB:
    """The sliver of :class:`~repro.objects.database.Database` a
    :class:`PipelineContext` actually touches: a clock and cost params.
    Central operators above the exchange charge the coordinator's
    timeline through this shim."""

    clock: SimClock
    params: CostParams


def coordinator_context(cluster: "ShardedCluster") -> PipelineContext:
    """A pipeline context whose charges land on the coordinator clock."""
    return PipelineContext(_CoordDB(cluster.clock, cluster.params))


class ExchangeOperator(Operator):
    """Round-robin bag-union of per-shard cursors.

    ``streams`` pairs each shard with a cursor over that shard's local
    plan (built by the shard's own OQL engine).  The operator owns the
    cursors: they are opened lazily at ``_open`` and closed — robustly,
    every one of them — at ``_close``.
    """

    def __init__(
        self,
        ctx: PipelineContext,
        cluster: "ShardedCluster",
        streams: "list[tuple[ShardNode, Cursor]]",
        on_batch=None,
    ):
        super().__init__(ctx)
        self.cluster = cluster
        self.streams = streams
        #: Optional hook fired after every shard pull (the sharded
        #: workload passes the scheduler's ``batch_point`` so shard
        #: streams interleave deterministically with other sessions).
        self.on_batch = on_batch
        self._t0 = 0.0
        #: Per-stream cumulative shard busy seconds since open.
        self._consumed = [0.0] * len(streams)
        self._done = [False] * len(streams)
        self._rr = 0
        #: Rows pulled per shard (fan-in skew diagnostics).
        self.rows_per_shard = [0] * len(streams)

    # -- operator hooks -------------------------------------------------

    def _open(self) -> None:
        self._t0 = self.ctx.db.clock.elapsed_s
        for i, (node, cursor) in enumerate(self.streams):
            before = node.busy_s
            try:
                cursor.ctx.mark_open()
                cursor.root.open()
            except BaseException:
                # A later shard refusing to open (failure, cancellation)
                # must not leak the cursors already opened on the
                # earlier shards.
                for prev_node, opened in self.streams[:i]:
                    if prev_node.down:
                        continue
                    try:
                        opened.close()
                    except ReproError:
                        pass
                raise
            self._consumed[i] += node.busy_s - before

    def _next(self, n: int) -> list:
        n_streams = len(self.streams)
        while not all(self._done):
            i = self._rr % n_streams
            self._rr += 1
            if self._done[i]:
                continue
            batch = self._pull(i, n)
            if batch:
                return batch
        return []

    def _close(self) -> None:
        for i, (node, cursor) in enumerate(self.streams):
            if node.down:
                # The node's volatile state — handle table included —
                # died with it; a close attempt could only raise and
                # mask the typed unavailability error being surfaced.
                continue
            try:
                cursor.close()
            except BaseException:
                # Best-effort close of the remaining shard cursors (a
                # second library failure is secondary), then surface
                # the first one.
                for rest_node, rest in self.streams[i + 1:]:
                    if rest_node.down:
                        continue
                    try:
                        rest.close()
                    except ReproError:
                        pass
                raise

    # -- the wire -------------------------------------------------------

    def _pull(self, i: int, n: int) -> list:
        node, cursor = self.streams[i]
        if node.down:
            # Another session's kill landed mid-drain; the cursor's
            # remote state is gone.  Closing this exchange (the drain's
            # context manager does) skips the dead shard.
            raise ShardUnavailableError(
                f"shard {node.shard_id} died while its exchange stream "
                "was being drained"
            )
        before = node.busy_s
        batch = cursor.root.next_batch(n)
        self._consumed[i] += node.busy_s - before
        if not batch:
            self._done[i] = True
        self._account(node, i, batch)
        if self.on_batch is not None:
            self.on_batch()
        return batch

    def _account(self, node: "ShardNode", i: int, batch: list) -> None:
        clock = self.ctx.db.clock
        params = self.ctx.db.params
        clock.charge_ms(_RPC, params.rpc_overhead_ms)
        nbytes = len(batch) * ROW_WIRE_BYTES
        if batch:
            pages = pages_for_bytes(nbytes, PAGE_SIZE)
            clock.charge_ms(_TRANSFER, pages * params.page_transfer_ms)
            self.rows_per_shard[i] += len(batch)
        self.cluster._note_msg(node, nbytes)
        # The batch is ready at t0 + B_i on the shard's virtual timeline;
        # wait out the remainder the other shards' work didn't cover.
        ready_s = self._t0 + self._consumed[i]
        wait_s = ready_s - clock.elapsed_s
        if wait_s > 0:
            clock.charge_s(_REMOTE, wait_s)
            node.remote_wait_s += wait_s
