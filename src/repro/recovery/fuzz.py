"""The ``recovery`` chaos suite: seeded crash-recovery fuzz cases.

Each case builds a small durably-loaded database, runs a seeded random
transactional workload with a :class:`CrashInjector` armed at one of the
named crash points, crashes, restarts through the ARIES-lite driver and
then verifies the recovery contract against an oracle kept outside the
simulated system:

* every transaction whose ``commit()`` returned (the ack) has a durable
  commit record — no lost acks;
* every record — base or created, a created one preloaded as gone —
  holds the last write of the durably-committed transactions in
  commit-LSN order, so loser-created objects are gone (the harness's
  :func:`~repro.recovery.harness.check_last_writer`);
* recovery is deterministic: re-running the same (seed, crash point)
  case reproduces the identical recovered state and report (the
  harness's double run, :func:`repro.recovery.harness.run_case`);
* **snapshot consistency** (``mix-run`` cases): a snapshot-isolation
  reader runs alongside the writers, and every value it reads must
  equal the committed state of that record *at the reader's begin
  timestamp* — stable across writer commits, aborts and yields — per
  an oracle maintained outside the simulated system.

``mix-run`` cases drive several concurrent workers through the
cooperative scheduler (lock waits, deadlock retries) — the same
machinery the :class:`~repro.service.WorkloadMixer` runs on — so the
crash lands mid-concurrent-run; the other points use a two-slot
interleaved workload over disjoint key pools.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace

from repro.errors import (
    LockConflictError,
    ReproError,
    ServiceError,
    SimulatedCrashError,
    StorageError,
)
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.recovery.aries import restart, take_checkpoint
from repro.recovery.crash import CRASH_POINTS, CrashInjector, crash_database
from repro.recovery.harness import Suite, check_last_writer
from repro.storage.rid import Rid
from repro.txn import TransactionManager

#: Fixed-width filler so base records spread over several pages.
_PAD = "x" * 96

#: The two-slot workload checkpoints every n-th started transaction.
_CHECKPOINT_EVERY = 3

#: Transactions the two-slot workload starts per case.
_TXNS = 10

#: How many times each crash point can plausibly be reached in one case;
#: the occurrence is drawn from this range so crashes land early, late
#: and (sometimes) never — the never case degenerates to a clean crash
#: at quiesce, which recovery must also handle.
_OCCURRENCE_RANGE = {
    "log-append": 48,
    "commit-flush": 14,
    "flush-write-gap": 8,
    "checkpoint": 4,
    "mix-run": 56,
}


def _make_db() -> tuple[Database, list[Rid]]:
    """A small Thing database whose 96 base records are durably on disk."""
    schema = Schema()
    schema.define(
        "Thing",
        [
            AttributeDef("x", AttrKind.INT32),
            AttributeDef("pad", AttrKind.STRING, width=len(_PAD)),
        ],
    )
    db = Database(schema)
    db.create_file("things")
    rids = [
        db.create_object("Thing", {"x": i * 100, "pad": _PAD}, "things")
        for i in range(96)
    ]
    db.shutdown()  # flush: the preload is durable before the fuzz starts
    return db, rids


def _read_x(db: Database, rid: Rid):
    """Recovered value of ``rid``'s x, or ``None`` if the record is gone."""
    try:
        return db.manager.get_attr_at(rid, "x")
    except (StorageError, ReproError):
        return None


def _execute(seed: int, point: str):
    """Run one seeded workload, crash at ``point`` and recover; returns
    the case's row, digest and the evidence its invariants inspect."""
    rng = Random(seed * 1_000_003 + CRASH_POINTS.index(point))
    db, rids = _make_db()
    txm = TransactionManager(db, recovery=True)
    occurrence = rng.randint(1, _OCCURRENCE_RANGE[point])
    injector = CrashInjector(point, occurrence)
    injector.arm(db, txm.log)

    base = {rid: i * 100 for i, rid in enumerate(rids)}
    txn_writes: dict[int, dict[Rid, int]] = {}
    txn_creates: dict[int, list[Rid]] = {}
    acked: list[int] = []

    snapshot_failures: list[str] = []
    try:
        if point == "mix-run":
            started = _mix_workload(
                db, txm, rids, rng, txn_writes, txn_creates, acked,
                snapshot_failures,
            )
        else:
            started = _two_slot_workload(
                db, txm, rids, rng, txn_writes, txn_creates, acked
            )
    except SimulatedCrashError:
        started = len(txn_writes)

    crash_database(db, txm)
    commit_order = [r.txn_id for r in txm.log.records if r.kind == "commit"]
    report = restart(db, txm)

    durable = set(commit_order)
    # Created records are watched too, preloaded as gone (``None``).
    preload = dict(base)
    for created in txn_creates.values():
        preload.update(dict.fromkeys(created))
    writes = [
        write
        for txn_id in commit_order
        for write in txn_writes.get(txn_id, {}).items()
    ]
    found = {rid: _read_x(db, rid) for rid in sorted(preload)}
    digest = tuple((tuple(rid), value) for rid, value in found.items()) + (
        report.log_records_scanned,
        report.records_redone,
        report.records_undone,
        report.txns_undone,
        round(report.seconds, 9),
    )
    row = {
        "Point": point,
        "Occ": occurrence,
        "Fired": injector.fired,
        "Txns": started,
        "Acked": len(acked),
        "Durable": len(durable),
        "Losers": report.txns_undone,
    }
    evidence = SimpleNamespace(
        snapshot_failures=snapshot_failures,
        acked=acked,
        durable=durable,
        preload=preload,
        writes=writes,
        found=found,
    )
    return row, digest, evidence


# -- invariants ----------------------------------------------------------


def _snapshot_consistent(ev) -> list[str]:
    """Collected live by the mix-run cases' snapshot reader."""
    return ev.snapshot_failures


def _acks_durable(ev) -> list[str]:
    return [
        f"txn {txn_id}: commit acked but not durable"
        for txn_id in ev.acked
        if txn_id not in ev.durable
    ]


def _last_writer(ev) -> list[str]:
    return check_last_writer(
        ev.preload, ev.writes, ev.found,
        describe=lambda rid: f"rid {tuple(rid)}",
    )


def _two_slot_workload(
    db, txm, rids, rng, txn_writes, txn_creates, acked
) -> int:
    """Up to two interleaved transactions over disjoint rid pools, so a
    crash can leave several losers and checkpoints see a live ATT."""
    half = len(rids) // 2
    pools = (rids[:half], rids[half:])
    slots: list[dict | None] = [None, None]
    started = 0
    while started < _TXNS or any(s is not None for s in slots):
        i = rng.randrange(2)
        if slots[i] is None:
            if started >= _TXNS:
                i = next(j for j, s in enumerate(slots) if s is not None)
            else:
                if started and started % _CHECKPOINT_EVERY == 0:
                    take_checkpoint(db, txm)
                txn = txm.begin()
                txn_writes[txn.txn_id] = {}
                txn_creates[txn.txn_id] = []
                slots[i] = {"txn": txn, "ops": 0}
                started += 1
                continue
        slot = slots[i]
        txn = slot["txn"]
        roll = rng.random()
        if roll < 0.55 or slot["ops"] == 0:
            rid = pools[i][rng.randrange(len(pools[i]))]
            value = rng.randrange(1_000_000)
            txn.update_scalar(rid, "x", value)
            txn_writes[txn.txn_id][rid] = value
            slot["ops"] += 1
        elif roll < 0.70:
            value = rng.randrange(1_000_000)
            rid = txn.create_object("Thing", {"x": value, "pad": _PAD}, "things")
            txn_writes[txn.txn_id][rid] = value
            txn_creates[txn.txn_id].append(rid)
            slot["ops"] += 1
        elif roll < 0.88:
            txn.commit()
            acked.append(txn.txn_id)
            slots[i] = None
        else:
            txn.abort()
            slots[i] = None
    return started


def _mix_workload(
    db, txm, rids, rng, txn_writes, txn_creates, acked, snapshot_failures
) -> int:
    """Three concurrent writers plus one snapshot-isolation reader over
    an overlapping hot set, scheduled cooperatively with lock waits and
    deadlock-abort retries.  The reader verifies snapshot consistency
    against ``committed_now`` — the committed value of every hot record,
    maintained at each commit ack (ack order on the single deterministic
    timeline *is* commit order, so the dict at the reader's ``begin()``
    is exactly the committed state at its begin timestamp)."""
    from repro.service.scheduler import CooperativeScheduler

    scheduler = CooperativeScheduler(db.clock, txm.locks)
    db.system.on_fault = scheduler.yield_point
    hot = rids[: max(6, len(rids) // 3)]
    # Enable MVCC before any writer begins (the way QueryService does for
    # isolation="si"), so every write stashes its pre-image and the
    # reader's snapshots have no blind spot.
    txm.enable_mvcc()
    committed_now = {rid: i * 100 for i, rid in enumerate(hot)}

    def worker(worker_seed: int, ops: int):
        wrng = Random(worker_seed)

        def run() -> None:
            for __ in range(ops):
                for __retry in range(4):
                    txn = txm.begin()
                    txn_writes[txn.txn_id] = {}
                    txn_creates[txn.txn_id] = []
                    try:
                        for __w in range(2):
                            rid = hot[wrng.randrange(len(hot))]
                            value = wrng.randrange(1_000_000)
                            txn.update_scalar(rid, "x", value)
                            txn_writes[txn.txn_id][rid] = value
                            scheduler.yield_point()
                        txn.commit()
                        acked.append(txn.txn_id)
                        committed_now.update(txn_writes[txn.txn_id])
                        break
                    except LockConflictError:
                        if txn.state == "active":
                            txn.abort()

        return run

    def reader(worker_seed: int, ops: int):
        wrng = Random(worker_seed)

        def run() -> None:
            for __ in range(ops):
                # Captured in the same scheduler slice as begin() (no
                # yield between), so this IS the committed state at the
                # snapshot's begin timestamp.
                expected = dict(committed_now)
                txn = txm.begin(isolation="si")
                try:
                    sample = [
                        hot[wrng.randrange(len(hot))] for __r in range(3)
                    ]
                    seen = {}
                    for rid in sample:
                        value = txn.read_attr(rid, "x")
                        seen[rid] = value
                        if value != expected[rid]:
                            snapshot_failures.append(
                                f"si reader txn {txn.txn_id}: rid "
                                f"{tuple(rid)} read {value}, committed "
                                f"state at begin-ts was {expected[rid]}"
                            )
                        scheduler.yield_point()
                    for rid in sample:
                        again = txn.read_attr(rid, "x")
                        if again != seen[rid]:
                            snapshot_failures.append(
                                f"si reader txn {txn.txn_id}: rid "
                                f"{tuple(rid)} moved {seen[rid]} -> "
                                f"{again} inside one snapshot"
                            )
                        scheduler.yield_point()
                    txn.commit()
                except LockConflictError:
                    if txn.state == "active":
                        txn.abort()

        return run

    for w in range(3):
        scheduler.spawn(f"w{w}", worker(rng.randrange(2**31), ops=4))
    scheduler.spawn("si-reader", reader(rng.randrange(2**31), ops=4))
    try:
        tasks = scheduler.run()
    finally:
        db.system.on_fault = None
    crashed = False
    for task in tasks:
        if task.error is None:
            continue
        if isinstance(task.error, SimulatedCrashError):
            crashed = True
        elif not isinstance(task.error, (ServiceError, LockConflictError)):
            raise task.error
    if crashed:
        raise SimulatedCrashError("mix-run workload crashed")
    return len(txn_writes)


def _note(cases) -> str:
    fired = [c for c in cases if c.row["Fired"]]
    points = len({c.row["Point"] for c in fired})
    return (
        f"{len(fired)} crashes fired at {points}/{len(CRASH_POINTS)} crash "
        "points; invariants: acked commits durable, committed-visible, "
        "uncommitted-gone, snapshot-consistent si reads, deterministic "
        "re-runs"
    )


#: The suite: every seed runs once per crash point.
RECOVERY = Suite(
    name="recovery",
    execute=_execute,
    invariants=[_snapshot_consistent, _acks_durable, _last_writer],
    title="Recovery chaos: {n} seeded crash-recovery cases",
    note=_note,
    variants=tuple((point,) for point in CRASH_POINTS),
)
