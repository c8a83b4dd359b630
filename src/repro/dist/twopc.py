"""Two-phase commit over the per-shard write-ahead logs.

A distributed transaction touches several shards through per-shard
*branch* transactions — ordinary :class:`~repro.txn.manager.Transaction`
objects on each shard's own log and lock manager.  Committing them
atomically is the textbook presumed-abort protocol, built from pieces
the single-node stack already has:

* **phase 1 (PREPARE)** — each participant appends a ``prepare`` record
  to *its own* WAL and flushes it; the branch's physical records plus
  the durable prepare vote are exactly what
  :func:`repro.recovery.restart` needs to hold the branch *in doubt*
  instead of undoing it as a loser;
* **decision** — the coordinator appends a single ``commit`` record to
  its *decision log*, with the participant list ``((shard, branch), …)``
  in the record's ``att`` field, and flushes it.  This record **is** the
  commit point of the distributed transaction;
* **phase 2 (COMMIT)** — each participant runs an ordinary
  :meth:`~repro.txn.manager.Transaction.commit` (commit record, flush,
  release locks).

*Presumed abort*: no decision record means abort, so aborts write
nothing at the coordinator and in-doubt branches with no durable
decision are rolled back at restart.  A single-participant transaction
skips phase 1 entirely (the one-phase optimization — the participant's
own commit record is the decision).

:class:`TwoPCInjector` crashes the cluster at the protocol's five
interesting points — the whole-cluster kind of
:class:`~repro.recovery.NamedPointInjector`: after it fires, every shard
WAL and disk refuses service so the rest of the workload cannot mutate
durable state "after" the crash.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ShardUnavailableError, TwoPCError
from repro.recovery.crash import NamedPointInjector
from repro.txn.log import (
    ABORT_RECORD_BYTES,
    BEGIN_RECORD_BYTES,
    COMMIT_RECORD_BYTES,
    PREPARE_RECORD_BYTES,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.cluster import ShardedCluster
    from repro.txn.manager import Transaction

#: The named 2PC crash points, in protocol order.
TWOPC_CRASH_POINTS = (
    # Coordinator dies before any PREPARE went out: no votes, no
    # decision — every branch is an ordinary loser.
    "2pc-before-prepare",
    # Crash after the first participant's prepare flush: a durable vote
    # exists on one shard, none elsewhere, no decision — the prepared
    # branch is in doubt and resolves to abort.
    "2pc-mid-prepare",
    # All participants voted yes; coordinator dies before its decision
    # record is durable — every branch in doubt, all resolve to abort.
    "2pc-before-decision",
    # The decision record is durable but no COMMIT was delivered —
    # every branch in doubt, all resolve to commit.
    "2pc-after-decision",
    # Crash after the first participant committed: the rest are in
    # doubt and resolve to commit.
    "2pc-mid-commit",
)


class TwoPCInjector(NamedPointInjector):
    """Kills the cluster the ``occurrence``-th time ``point`` is reached.

    A whole-cluster kill: on firing it installs itself on every shard's
    WAL and disk (and the decision log) as a down-detector, so any later
    durable mutation raises :class:`~repro.errors.SimulatedCrashError`
    until :meth:`ShardedCluster.crash` performs the actual loss.
    """

    POINTS = TWOPC_CRASH_POINTS
    SCOPE = "cluster"

    def arm(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster
        cluster.injector = self

    def kill(self, detail) -> None:
        for node in self._cluster.all_nodes():
            node.txm.log.injector = self
            node.db.disk.injector = self
        self._cluster.decision_log.injector = self
        super().kill(detail)


class DistTransaction:
    """One distributed transaction: a lazily-opened branch per shard,
    committed with presumed-abort two-phase commit."""

    def __init__(self, cluster: "ShardedCluster", global_id: int):
        self.cluster = cluster
        self.global_id = global_id
        self.state = "active"
        #: shard id -> branch transaction, opened on first touch.
        self.branches: "dict[int, Transaction]" = {}
        #: shard id -> the node the branch was opened on.  Pinned at
        #: branch-open: a failover mid-transaction must *not* silently
        #: reroute later operations to the new primary (the branch's
        #: locks and log records live on the old one) — instead the
        #: pinned node's death or stale epoch surfaces as a typed error
        #: and the whole distributed transaction retries.
        self.branch_nodes: "dict[int, object]" = {}
        #: Whether the coordinator's decision record is known durable.
        self.decision_durable = False

    # -- branches -------------------------------------------------------

    def branch(self, shard_id: int) -> "Transaction":
        """The branch transaction on ``shard_id``, begun on first use
        (one round-trip: the begin record is appended at the shard)."""
        self._require_active()
        txn = self.branches.get(shard_id)
        if txn is None:
            node = self.cluster.route.node_for(shard_id)
            txn = self.cluster.call(
                node, lambda: node.txm.begin(logged=True),
                nbytes=BEGIN_RECORD_BYTES,
            )
            self.branches[shard_id] = txn
            self.branch_nodes[shard_id] = node
            self.cluster.lock_table.register(
                self.global_id, shard_id, txn.txn_id
            )
        return txn

    def update_scalar(self, shard_id: int, rid, attr_name: str, value) -> None:
        """Write one scalar attribute on a shard (lock + physical log at
        the shard, RPC + remote wait at the coordinator)."""
        txn = self.branch(shard_id)
        node = self.branch_nodes[shard_id]
        self.cluster.call(
            node, lambda: txn.update_scalar(rid, attr_name, value), nbytes=8
        )

    @property
    def participants(self) -> list[int]:
        return sorted(self.branches)

    # -- completion -----------------------------------------------------

    def commit(self) -> None:
        """Presumed-abort 2PC; one-phase when only one shard was touched."""
        self._require_active()
        cluster = self.cluster
        cluster.reached("2pc-before-prepare", f"gtxn {self.global_id}")
        participants = self.participants
        if not participants:
            self._finish("committed")
            return
        if len(participants) == 1:
            # One-phase: the sole participant's commit record decides.
            sid = participants[0]
            node = self.branch_nodes[sid]
            try:
                cluster.call(
                    node,
                    self.branches[sid].commit,
                    nbytes=COMMIT_RECORD_BYTES,
                )
            except ShardUnavailableError:
                # No decision record exists (one-phase skips the
                # coordinator log), so the outcome rides on what the
                # dying shard made durable; the caller only knows the
                # commit was not acknowledged.
                self.abort()
                raise
            self._finish("committed")
            return

        # Phase 1: every participant force-logs its vote, in parallel.
        cluster.fanout(
            [
                (self.branch_nodes[sid], self._make_prepare(sid))
                for sid in participants
            ],
            nbytes=PREPARE_RECORD_BYTES,
            after_first=lambda: cluster.reached(
                "2pc-mid-prepare", f"gtxn {self.global_id}"
            ),
        )

        # The decision: one durable record at the coordinator naming
        # every (shard, branch) pair — the distributed commit point.
        cluster.reached("2pc-before-decision", f"gtxn {self.global_id}")
        att = tuple(
            (sid, self.branches[sid].txn_id) for sid in participants
        )
        cluster.decision_log.append(
            self.global_id,
            "commit",
            COMMIT_RECORD_BYTES + 8 * len(att),
            att=att,
        )
        cluster.decision_log.flush()
        self.decision_durable = True
        cluster.reached("2pc-after-decision", f"gtxn {self.global_id}")

        # Phase 2: ordinary per-shard commits release the branches.
        # The durable decision record *is* the commit point: a
        # participant dying here must not drag the others down — its
        # branch resolves to commit from the decision log when its
        # replica is promoted (or at cluster recovery).
        for i, sid in enumerate(participants):
            try:
                cluster.call(
                    self.branch_nodes[sid],
                    self.branches[sid].commit,
                    nbytes=COMMIT_RECORD_BYTES,
                )
            except ShardUnavailableError:
                pass
            if i == 0:
                cluster.reached("2pc-mid-commit", f"gtxn {self.global_id}")
        self._finish("committed")

    def abort(self) -> None:
        """Roll back every branch.  Presumed abort: the coordinator
        logs nothing — the absence of a decision record *is* the abort."""
        self._require_active()
        cluster = self.cluster
        try:
            for sid in self.participants:
                txn = self.branches[sid]
                node = self.branch_nodes[sid]
                if txn.state != "active" or node.down:
                    # A crashed or unreachable branch needs no abort
                    # message: presumed abort (or, if its commit record
                    # already shipped, the decision log) settles it.
                    continue
                try:
                    cluster.call(node, txn.abort, nbytes=ABORT_RECORD_BYTES)
                except ShardUnavailableError:
                    continue
        finally:
            self._finish("aborted")

    def _make_prepare(self, shard_id: int):
        node = self.branch_nodes[shard_id]
        txn = self.branches[shard_id]

        def _prepare() -> None:
            record = node.txm.log.append(
                txn.txn_id,
                "prepare",
                PREPARE_RECORD_BYTES,
                prev_lsn=txn.last_lsn,
                att=((self.global_id, shard_id),),
            )
            txn.last_lsn = record.lsn
            node.txm.log.flush()

        return _prepare

    def _finish(self, state: str) -> None:
        self.state = state
        self.cluster.lock_table.unregister(self.global_id)
        self.cluster._on_dist_finished(self)

    def __enter__(self) -> "DistTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def _require_active(self) -> None:
        if self.state != "active":
            raise TwoPCError(
                f"distributed transaction {self.global_id} is {self.state}"
            )
