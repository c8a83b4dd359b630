"""Recovery cost: what a crash costs and what checkpoints buy.

The paper's Section 3.2 prices logging during *normal* operation (the
transaction-off loading trade-off); the recovery subsystem makes the
other half of that trade measurable.  Three sweeps, all on a small
dedicated Thing database whose base records are durably on disk:

* **checkpoint interval**: a fixed update workload, crashed at quiesce,
  restarted under checkpoint-every-{never, 16, 4, 1} policies — restart
  time must fall monotonically as checkpoints get more frequent, while
  the normal-operation cost rises (the flushes are not free);
* **update rate**: more logged work between checkpoints means more log
  to scan and more pages to redo;
* **loading**: the Section 3.2 trade-off demonstrated end to end —
  transaction-off loading is measurably faster, and after a mid-load
  crash it fails the durability check that logged loading passes.

Results land in ``results/recovery_checkpoint_sweep.txt``,
``results/recovery_update_rate.txt``, ``results/recovery_loading.txt``
and ``results/recovery_runs.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.bench.report import Table
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.recovery import crash_database, restart, take_checkpoint
from repro.stats import StatsDatabase, records_to_csv
from repro.storage.rid import Rid
from repro.txn import TransactionManager

_PAD = "x" * 96
SEED = 7

CHECKPOINT_POLICIES = (0, 16, 4, 1)  # transactions per checkpoint; 0 = never
SWEEP_TXNS = 64
SWEEP_UPDATES_PER_TXN = 2

UPDATE_RATES = (1, 4, 16)
RATE_TXNS = 32
RATE_CHECKPOINT_EVERY = 8

LOAD_BATCHES = 4
LOAD_BATCH_SIZE = 400


def _make_db(base_records: int = 128) -> tuple[Database, list[Rid]]:
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
        db.create_object("Thing", {"x": i, "pad": _PAD}, "things")
        for i in range(base_records)
    ]
    db.shutdown()  # the preload is durable before the measured workload
    return db, rids


def _update_run(
    txns: int, updates_per_txn: int, checkpoint_every: int
) -> dict:
    """Run a seeded update workload, crash at quiesce, restart.

    Returns the run cost, the recovery report and whether every
    durably-committed value survived (the durability check).
    """
    db, rids = _make_db()
    txm = TransactionManager(db, recovery=True)
    rng = Random(SEED)
    expected = {rid: i for i, rid in enumerate(rids)}
    start_s = db.clock.elapsed_s
    for i in range(txns):
        if checkpoint_every and i and i % checkpoint_every == 0:
            take_checkpoint(db, txm)
        with txm.begin() as txn:
            for __ in range(updates_per_txn):
                rid = rids[rng.randrange(len(rids))]
                value = rng.randrange(1_000_000)
                txn.update_scalar(rid, "x", value)
                expected[rid] = value
    run_s = db.clock.elapsed_s - start_s
    crash_database(db, txm)
    report = restart(db, txm)
    durable_ok = all(
        db.manager.get_attr_at(rid, "x") == value
        for rid, value in expected.items()
    )
    return {
        "db": db,
        "run_s": run_s,
        "report": report,
        "durable_ok": durable_ok,
    }


@dataclass
class _CsvRow:
    """One recovery run; its fields are the columns of
    ``results/recovery_runs.csv``."""

    label: str
    crash_point: str
    checkpoint_every: int
    txns: int
    updates: int
    committed: int
    lost: int
    recovery_s: float
    log_records_scanned: int
    log_pages_read: int
    pages_redone: int
    records_redone: int
    txns_undone: int
    records_undone: int
    durability_ok: int


def _csv_row(label, crash_point, checkpoint_every, txns, updates, run) -> _CsvRow:
    report = run["report"]
    return _CsvRow(
        label=label,
        crash_point=crash_point,
        checkpoint_every=checkpoint_every,
        txns=txns,
        updates=updates,
        committed=txns,
        lost=report.txns_undone,
        recovery_s=report.seconds,
        log_records_scanned=report.log_records_scanned,
        log_pages_read=report.log_pages_read,
        pages_redone=report.pages_redone,
        records_redone=report.records_redone,
        txns_undone=report.txns_undone,
        records_undone=report.records_undone,
        durability_ok=int(run["durable_ok"]),
    )


def test_recovery_vs_checkpoint_interval(save_table):
    runs = {
        c: _update_run(SWEEP_TXNS, SWEEP_UPDATES_PER_TXN, c)
        for c in CHECKPOINT_POLICIES
    }

    table = Table(
        f"Restart time vs checkpoint interval ({SWEEP_TXNS} txns x "
        f"{SWEEP_UPDATES_PER_TXN} updates, crash at quiesce)",
        ["Ckpt every", "Run (s)", "Recovery (s)", "Log recs scanned",
         "Log pages", "Pages redone", "Records redone", "Durable OK"],
    )
    stats = StatsDatabase()
    csv_rows = []
    for c in CHECKPOINT_POLICIES:
        run = runs[c]
        r = run["report"]
        label = "never" if c == 0 else str(c)
        table.add(label, run["run_s"], r.seconds, r.log_records_scanned,
                  r.log_pages_read, r.pages_redone, r.records_redone,
                  "yes" if run["durable_ok"] else "NO")
        stats.record_experiment(
            algo="recovery",
            cluster="class",
            elapsed_s=r.seconds,
            meters=run["db"].counters.snapshot(),
            text=f"restart after quiesce crash, checkpoint every {label}",
        )
        csv_rows.append(_csv_row(
            f"ckpt-{label}", "quiesce", c, SWEEP_TXNS,
            SWEEP_TXNS * SWEEP_UPDATES_PER_TXN, run,
        ))
    table.note("more frequent checkpoints: restart gets cheaper, normal "
               "operation pays for the extra page flushes "
               "(see recovery_loading.txt for the transaction-off half "
               "of the trade)")
    save_table("recovery_checkpoint_sweep", table)
    save_table("recovery_runs.csv", records_to_csv(_CsvRow, csv_rows))

    seconds = [runs[c]["report"].seconds for c in CHECKPOINT_POLICIES]
    # CHECKPOINT_POLICIES orders checkpoints least->most frequent, so
    # recovery time must fall strictly monotonically along it.
    assert all(a > b for a, b in zip(seconds, seconds[1:])), seconds
    # ... while normal operation gets dearer at the frequent end.
    assert runs[1]["run_s"] > runs[0]["run_s"]
    # Recovery is correct at every policy, not just fast.
    assert all(runs[c]["durable_ok"] for c in CHECKPOINT_POLICIES)
    assert len(stats) == len(CHECKPOINT_POLICIES)


def test_recovery_vs_update_rate(save_table):
    runs = {
        u: _update_run(RATE_TXNS, u, RATE_CHECKPOINT_EVERY)
        for u in UPDATE_RATES
    }

    table = Table(
        f"Restart time vs update rate ({RATE_TXNS} txns, checkpoint "
        f"every {RATE_CHECKPOINT_EVERY}, crash at quiesce)",
        ["Updates/txn", "Run (s)", "Recovery (s)", "Log recs scanned",
         "Log pages", "Records redone", "Durable OK"],
    )
    for u in UPDATE_RATES:
        run = runs[u]
        r = run["report"]
        table.add(u, run["run_s"], r.seconds, r.log_records_scanned,
                  r.log_pages_read, r.records_redone,
                  "yes" if run["durable_ok"] else "NO")
    table.note("a higher update rate leaves more log between the last "
               "checkpoint and the crash: analysis scans more, redo "
               "repeats more")
    save_table("recovery_update_rate", table)

    seconds = [runs[u]["report"].seconds for u in UPDATE_RATES]
    assert all(a < b for a, b in zip(seconds, seconds[1:])), seconds
    assert all(runs[u]["durable_ok"] for u in UPDATE_RATES)


def _loading_run(logged: bool) -> dict:
    """Load records in committed batches, crash mid-batch, restart."""
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
    txm = TransactionManager(db, recovery=True)
    start_s = db.clock.elapsed_s
    committed = 0
    for b in range(LOAD_BATCHES):
        with txm.begin(logged=logged) as txn:
            for i in range(LOAD_BATCH_SIZE):
                txn.create_object(
                    "Thing", {"x": committed + i, "pad": _PAD}, "things"
                )
        committed += LOAD_BATCH_SIZE
    # The crash lands mid-way through the next batch.
    txn = txm.begin(logged=logged)
    for i in range(LOAD_BATCH_SIZE // 2):
        txn.create_object("Thing", {"x": committed + i, "pad": _PAD}, "things")
    load_s = db.clock.elapsed_s - start_s
    crash_database(db, txm)
    report = restart(db, txm)
    survivors = db.file("things").record_count
    return {
        "load_s": load_s,
        "committed": committed,
        "survivors": survivors,
        "report": report,
        "durable_ok": survivors == committed,
    }


def test_transaction_off_loading_is_fast_but_unrecoverable(save_table):
    runs = {logged: _loading_run(logged) for logged in (True, False)}

    table = Table(
        f"Mid-load crash: logged vs transaction-off loading "
        f"({LOAD_BATCHES} batches x {LOAD_BATCH_SIZE} objects committed, "
        f"crash mid-batch {LOAD_BATCHES + 1})",
        ["Mode", "Load (s)", "Committed", "Recovered", "Recovery (s)",
         "Durability check"],
    )
    for logged in (True, False):
        run = runs[logged]
        table.add(
            "logged" if logged else "transaction-off",
            run["load_s"], run["committed"], run["survivors"],
            run["report"].seconds,
            "pass" if run["durable_ok"] else "FAIL",
        )
    table.note('the paper used transaction-off "only for loading, not '
               'for running our tests" — this is why: it is faster '
               "precisely because nothing reaches the log, so a crash "
               "forfeits every batch, acked or not "
               "(docs/benchmarking-tips.md)")
    save_table("recovery_loading", table)

    logged_run, off_run = runs[True], runs[False]
    # Transaction-off loading is measurably faster...
    assert off_run["load_s"] < logged_run["load_s"] * 0.9
    # ...but the logged load recovers exactly its committed batches,
    # while transaction-off loses them (the in-flight tail dies in both).
    assert logged_run["durable_ok"]
    assert logged_run["survivors"] == LOAD_BATCHES * LOAD_BATCH_SIZE
    assert not off_run["durable_ok"]
    assert off_run["survivors"] < off_run["committed"]
