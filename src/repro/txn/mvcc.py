"""Multi-version concurrency control: snapshots, version chains, GC.

The paper's Section 4.4 handle anatomy reserves a *version pointer* in
every 60-byte handle; this module is where that pointer finally earns
its bytes.  The design follows classic snapshot isolation:

* Commits are stamped with a **monotonic commit timestamp** issued by
  the :class:`~repro.txn.manager.TransactionManager` at the moment a
  commit record is appended, so the commit order and the visibility
  order are the same total order.
* ``begin(isolation="si")`` takes a :class:`Snapshot` — the commit
  high-water mark plus the set of transactions active at begin.  A
  reader resolves every rid to the newest version whose commit
  timestamp is ``<= begin_ts``; it takes **zero read locks** and never
  waits for a writer.
* Writers keep strict-2PL X-locks (write/write conflicts still
  serialize through the lock manager), and before overwriting a record
  in place they **stash the committed pre-image** into the record's
  version chain, priced at ``version_stash_us``.
* **First-committer-wins**: a write to a record whose newest committed
  version is younger than the writer's snapshot raises
  :class:`~repro.errors.WriteConflictError` — the losing transaction
  aborts and the mixers' ``session_loop`` retries it with backoff.
* Versions older than the oldest active snapshot are garbage:
  :meth:`VersionStore.sweep` (driven by the query service every few
  commits) drops every chain entry no live snapshot can still reach.

Chains live in transaction-manager memory as pre-image copies keyed by
rid, and are *volatile by design* — restart discards them (uncommitted
writers are rolled back by ARIES undo, so the post-restart committed
state needs no history) and restores only the commit-timestamp
high-water from durable commit records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecordNotVisibleError
from repro.simtime import Bucket, CostParams, SimClock
from repro.storage.rid import Rid

_LOAD = Bucket.LOAD

#: :meth:`SnapshotView.tag` sentinel — the live record is the visible one.
LIVE = object()
#: :meth:`SnapshotView.tag` sentinel — no version is visible (the object
#: was created after the snapshot, or by a still-active transaction).
INVISIBLE = object()


@dataclass(frozen=True)
class Snapshot:
    """What ``begin(isolation="si")`` captures: the reader's fixed view.

    ``begin_ts`` is the commit high-water mark at begin; a version is
    visible iff its commit timestamp is ``<= begin_ts``.  Because commit
    timestamps are issued in commit order on the single simulated
    timeline, the timestamp test alone is sufficient; ``active`` is kept
    for introspection (and the fuzz oracle) — it is the set of
    transactions whose effects must *not* be visible despite any future
    commit."""

    txn_id: int
    begin_ts: int
    active: frozenset[int]


@dataclass(frozen=True)
class RecordVersion:
    """One chain entry: the record bytes that *became* the committed
    content at commit timestamp ``ts`` (0 = loaded before MVCC was
    enabled) and stayed current until the next entry's timestamp.
    ``writer`` is the transaction that stashed it — the entry is
    *pending* until that writer commits, and is withdrawn if it
    aborts."""

    ts: int
    record: bytes
    writer: int


class VersionStore:
    """Per-record version chains plus the commit-timestamp bookkeeping
    first-committer-wins needs.

    ``_chains[rid]`` is ascending by ``ts``: index *i*'s entry was the
    committed content over ``[chain[i].ts, chain[i+1].ts)`` (the last
    entry dies at the live record's commit timestamp).  ``_committed_ts``
    maps each rid to its newest committed version's timestamp — absent
    means 0, i.e. preloaded data visible to every snapshot."""

    def __init__(self, clock: SimClock, params: CostParams):
        self.clock = clock
        self.params = params
        self._chains: dict[Rid, list[RecordVersion]] = {}
        self._committed_ts: dict[Rid, int] = {}
        self._writers: dict[Rid, int] = {}
        self._pending: dict[int, list[Rid]] = {}

    # -- writer side ----------------------------------------------------

    def stash(self, rid: Rid, record: bytes, txn_id: int) -> None:
        """Record the committed pre-image of ``rid`` before ``txn_id``
        overwrites it in place (called once per rid per transaction,
        under the X-lock).  Charged at ``version_stash_us``."""
        base_ts = self._committed_ts.get(rid, 0)
        self._chains.setdefault(rid, []).append(
            RecordVersion(base_ts, record, txn_id)
        )
        self._writers[rid] = txn_id
        self._pending.setdefault(txn_id, []).append(rid)
        self.clock.charge_us(_LOAD, self.params.version_stash_us)

    def note_create(self, rid: Rid, txn_id: int) -> None:
        """A brand-new object has no pre-image; marking its writer keeps
        it invisible to concurrent snapshots until the creator commits."""
        self._writers[rid] = txn_id
        self._pending.setdefault(txn_id, []).append(rid)

    def committed_ts(self, rid: Rid) -> int:
        """Commit timestamp of the newest committed version of ``rid``
        (0 = preloaded / never written under MVCC)."""
        return self._committed_ts.get(rid, 0)

    def commit(self, txn_id: int, ts: int) -> None:
        """Make ``txn_id``'s writes the committed versions at ``ts``."""
        for rid in self._pending.pop(txn_id, ()):
            self._committed_ts[rid] = ts
            if self._writers.get(rid) == txn_id:
                del self._writers[rid]

    def abort(self, txn_id: int) -> None:
        """Withdraw ``txn_id``'s pending chain entries (2PL undo restores
        the live record to exactly the stashed image, so keeping it would
        only duplicate the live state)."""
        for rid in self._pending.pop(txn_id, ()):
            if self._writers.get(rid) == txn_id:
                del self._writers[rid]
            chain = self._chains.get(rid)
            if not chain:
                continue
            chain[:] = [v for v in chain if v.writer != txn_id]
            if not chain:
                del self._chains[rid]

    # -- garbage collection ---------------------------------------------

    def sweep(self, horizon_ts: int) -> int:
        """Drop every chain entry no snapshot with ``begin_ts >=
        horizon_ts`` can reach; returns the number of versions freed.

        Entry *i* is visible to begin timestamps in ``[ts, death)``
        where ``death`` is the next entry's timestamp (or the live
        record's).  Entries stashed by still-active writers are always
        kept.  Each examined entry costs ``version_gc_us``."""
        freed = 0
        for rid in list(self._chains):
            chain = self._chains[rid]
            keep: list[RecordVersion] = []
            for i, version in enumerate(chain):
                self.clock.charge_us(_LOAD, self.params.version_gc_us)
                if i + 1 < len(chain):
                    death = chain[i + 1].ts
                else:
                    death = self._committed_ts.get(rid, 0)
                if version.writer in self._pending or death > horizon_ts:
                    keep.append(version)
                else:
                    freed += 1
            if keep:
                self._chains[rid] = keep
            else:
                del self._chains[rid]
        return freed

    # -- introspection / crash -----------------------------------------

    def clear(self) -> None:
        """Lose everything volatile (crash / restart): chains are
        rebuilt lazily from future writes, never from the old ones."""
        self._chains.clear()
        self._committed_ts.clear()
        self._writers.clear()
        self._pending.clear()


class SnapshotView:
    """Resolves rids against one :class:`Snapshot`.

    Installed (duck-typed) as ``ObjectManager.read_view`` while an SI
    transaction is the active session, without the object layer
    importing ``txn``.  ``ObjectManager.fetch`` — Fetch operators, the
    joins, exists and aggregates — asks :meth:`live` once per rid and
    brackets a live record itself; every other read of the path, and a
    rid the kernel does not take, goes through ``borrow`` to
    :meth:`load`."""

    def __init__(self, store: VersionStore, snapshot: Snapshot):
        self.store = store
        self.snapshot = snapshot
        #: Reads that resolved to a chain entry instead of the live record.
        self.version_reads = 0

    def live(self, rid: Rid) -> bool:
        """Whether the live record of ``rid`` is the one this snapshot
        sees: the reader's own write, or a record no active transaction
        is writing whose newest commit is no younger than the snapshot.
        Pure bookkeeping — charges nothing.  ``ObjectManager.fetch``
        asks it once per rid, and brackets a live rid itself."""
        store = self.store
        writers = store._writers
        if rid in writers:
            return writers[rid] == self.snapshot.txn_id  # read-your-own-writes
        committed = store._committed_ts
        return rid not in committed or committed[rid] <= self.snapshot.begin_ts

    def tag(self, rid: Rid):
        """Visibility decision for ``rid``: :data:`LIVE` (:meth:`live`),
        else the newest :class:`RecordVersion` committed at or before
        the snapshot, else :data:`INVISIBLE`.  Pure bookkeeping —
        charges nothing; the charged work happens when a version is
        actually materialized in :meth:`load`."""
        if self.live(rid):
            return LIVE
        begin_ts = self.snapshot.begin_ts
        for version in reversed(self.store._chains.get(rid, ())):
            if version.ts <= begin_ts:
                return version
        return INVISIBLE

    def load(self, om, rid: Rid):
        """Snapshot-visible counterpart of ``ObjectManager.load``:
        returns a referenced handle for the version this snapshot sees,
        or raises :class:`~repro.errors.RecordNotVisibleError`.  A
        visible live record is borrowed through the manager's own
        ``borrow``, with this view stood aside for the one call."""
        while True:
            tag = self.tag(rid)
            if tag is INVISIBLE:
                raise RecordNotVisibleError(
                    f"{rid} has no version visible at begin_ts="
                    f"{self.snapshot.begin_ts} (txn {self.snapshot.txn_id})"
                )
            if tag is not LIVE:
                break
            counters = om.handles.counters
            allocated = counters.handles_allocated
            om.read_view = None
            try:
                handle = om.borrow(rid)
            finally:
                om.read_view = self
            # A miss may have faulted and yielded the baton: a writer
            # can land its in-place update between the visibility
            # decision above and the page read.  Re-check; the writer
            # stashes the pre-image *before* it writes, so when the tag
            # changed the chain already holds what this snapshot needs.
            # A hit allocates nothing and reads nothing, so cannot yield.
            if counters.handles_allocated == allocated or self.live(rid):
                return handle
            om.unref(handle)

        def load_version():
            self.store.clock.charge_us(
                _LOAD, self.store.params.version_read_us
            )
            return tag.record, om.class_of(tag.record)

        self.version_reads += 1
        return om.handles.get_version(rid, tag.ts, load_version)
