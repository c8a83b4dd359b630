"""MVCC snapshot isolation vs strict 2PL: the concurrency benchmark.

The MVCC refactor (``repro.txn.mvcc``) must pay for its version chains
the way every subsystem here does — against measured, gated truth.  One
mixed workload (navigators + scanners + updaters over the Derby hot
set) runs twice on identically-seeded fresh databases: once under
strict two-phase locking, once under snapshot isolation.  Updaters use
``update_values="keyed"`` so the committed end state is a pure function
of the op set — retries and commit order cannot change it — which makes
the two isolation levels directly comparable, digest for digest.

Hard gates — the test fails on any of them:

* **zero read locks**: under SI no navigator or scanner session ever
  blocks on a lock (``lock_waits == 0`` for every non-updater);
* **throughput**: the SI mix commits more transactions per simulated
  second than the identical 2PL mix (readers no longer queue behind
  updaters' X locks);
* **no give-ups**: both runs commit every operation (retries absorb
  deadlocks, timeouts and write conflicts);
* **same answer**: the hot-set end state (patient ages) is identical
  between the 2PL and the SI run — MVCC changes the schedule, never
  the committed result.

Outputs: ``BENCH_mvcc.json`` (repo root), ``results/mvcc_mix.txt`` and
``results/mvcc_mix.csv`` (per-session metrics for both isolations).
Run with ``python -m pytest benchmarks/bench_mvcc.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.service import MixConfig, WorkloadMixer
from repro.stats import mix_to_csv

SCALE = 0.005         # 5_000 providers / 15_000 patients
ISOLATIONS = ("2pl", "si")

#: The shared mix both isolation levels run: enough updaters that the
#: hot set is contended, enough readers that 2PL's S/X queueing shows.
BASE_CONFIG = MixConfig(
    navigators=2,
    scanners=3,
    updaters=3,
    ops_per_client=4,
    seed=11,
    lock_timeout_s=2.0,
    max_retries=10,
    hot_set=8,
    update_values="keyed",
    # 2PL pays physical logging too, so the comparison is isolation
    # level against isolation level — not logging mode against logging
    # mode ("si" would force recovery on anyway).
    recovery=True,
)


@dataclass
class IsolationRun:
    """One isolation level's aggregate outcome."""

    isolation: str
    committed: int
    aborted: int
    retries: int
    gave_up: int
    deadlocks: int
    timeouts: int
    conflicts: int
    lock_waits: int
    reader_lock_waits: int
    elapsed_s: float
    throughput_ops_s: float
    context_switches: int
    end_state_digest: str


def _digest(values: list[int]) -> str:
    return hashlib.sha256(
        ",".join(str(v) for v in values).encode()
    ).hexdigest()[:16]


def run_isolation(isolation: str) -> tuple[IsolationRun, object]:
    derby = load_derby(DerbyConfig.db_1to3(scale=SCALE))
    mixer = WorkloadMixer(derby, replace(BASE_CONFIG, isolation=isolation))
    report = mixer.run()
    hot = derby.patient_rids[: BASE_CONFIG.hot_set]
    om = derby.db.manager
    end_state = [int(om.get_attr_at(rid, "age")) for rid in hot]
    reader_waits = sum(
        s.metrics.lock_waits
        for s in report.sessions
        if s.profile != "updater"
    )
    return (
        IsolationRun(
            isolation=isolation,
            committed=report.committed,
            aborted=report.aborted,
            retries=report.retries,
            gave_up=report.gave_up,
            deadlocks=report.deadlocks,
            timeouts=report.timeouts,
            conflicts=report.conflicts,
            lock_waits=report.lock_waits,
            reader_lock_waits=reader_waits,
            elapsed_s=report.elapsed_s,
            throughput_ops_s=report.throughput_ops_s,
            context_switches=report.context_switches,
            end_state_digest=_digest(end_state),
        ),
        report,
    )


def check(runs: dict[str, IsolationRun]) -> list[str]:
    failures = []
    si, tpl = runs["si"], runs["2pl"]
    if si.reader_lock_waits:
        failures.append(
            f"si readers blocked on {si.reader_lock_waits} lock(s); "
            "snapshot reads must be lock-free"
        )
    if si.throughput_ops_s <= tpl.throughput_ops_s:
        failures.append(
            f"si throughput {si.throughput_ops_s:.3f} txn/s does not "
            f"beat 2pl {tpl.throughput_ops_s:.3f} txn/s"
        )
    for run in runs.values():
        if run.gave_up:
            failures.append(
                f"{run.isolation} mix gave up on {run.gave_up} op(s)"
            )
    if si.end_state_digest != tpl.end_state_digest:
        failures.append(
            f"committed end states diverge: 2pl {tpl.end_state_digest} "
            f"!= si {si.end_state_digest} (keyed updates must make the "
            "result schedule-independent)"
        )
    return failures


def test_mvcc_mix(save_table, save_json):
    runs: dict[str, IsolationRun] = {}
    tables: list[str] = []
    csv_lines: list[str] = []
    for isolation in ISOLATIONS:
        run, report = run_isolation(isolation)
        runs[isolation] = run
        tables.append(f"=== isolation={isolation} ===\n{report.table()}")
        header, *rows = mix_to_csv(report).splitlines()
        if not csv_lines:  # one header for the whole file
            csv_lines.append(header + ",isolation")
        csv_lines.extend(f"{row},{isolation}" for row in rows)

    si, tpl = runs["si"], runs["2pl"]
    verdict = (
        f"2pl: {tpl.committed} committed in {tpl.elapsed_s:.2f} s "
        f"({tpl.throughput_ops_s:.3f} txn/s, {tpl.lock_waits} lock "
        f"waits)\n"
        f"si:  {si.committed} committed in {si.elapsed_s:.2f} s "
        f"({si.throughput_ops_s:.3f} txn/s, {si.lock_waits} lock waits, "
        f"{si.conflicts} write conflicts, reader lock waits "
        f"{si.reader_lock_waits})\n"
        f"end-state digests: 2pl {tpl.end_state_digest} / "
        f"si {si.end_state_digest}\n"
    )
    save_table("mvcc_mix", "\n\n".join(tables) + "\n\n" + verdict)
    save_table("mvcc_mix.csv", "\n".join(csv_lines) + "\n")
    save_json("mvcc", {
        "benchmark": "mvcc_mix",
        "scale": SCALE,
        "config": {
            "clients": BASE_CONFIG.total_clients,
            "ops_per_client": BASE_CONFIG.ops_per_client,
            "seed": BASE_CONFIG.seed,
            "hot_set": BASE_CONFIG.hot_set,
            "lock_timeout_s": BASE_CONFIG.lock_timeout_s,
            "update_values": BASE_CONFIG.update_values,
        },
        "runs": {k: asdict(v) for k, v in runs.items()},
        "speedup": (
            si.throughput_ops_s / tpl.throughput_ops_s
            if tpl.throughput_ops_s > 0
            else None
        ),
        "digest_match": si.end_state_digest == tpl.end_state_digest,
    })
    failures = check(runs)
    assert not failures, "\n".join(failures)
