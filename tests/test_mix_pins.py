"""Pinned simulated outcomes of the multi-client mixes at chaos scale.

``tests/chaos_digests.json`` pins 125 seeded fault cases, but the chaos
generators never draw ``optimizer="cost"``, ``batch_size``,
``update_values="keyed"``, ``server_cache_pages`` or transient faults on
a cluster, and a digest hash cannot say *which* counter moved.
``mix_pins.json`` closes both gaps for the workload layer
(``repro.service.workload`` / ``repro.dist.workload``): every cell is one
cold mix on a freshly loaded 1:3 database of ~30 patients, shaped so
that it contends (three updaters on a four-patient hot set, 90 % scans).

* **service** -- {2pl, si} x {heuristic, cost} x ``batch_size``
  {default, 7}, plus one cell each with ``max_active=2``,
  ``lock_timeout_s=0.25`` (four updaters on two patients, so it bites),
  ``update_values="keyed"``, a 4-page server cache, a
  ``CrashInjector("mix-run")`` and a ``TransientFaultInjector``;
* **sharded** -- shards {1, 2, 4} x {hash, range}, plus one replicated
  cluster with a scheduled primary kill and one under transient faults.

A cell keeps, per session, every outcome counter, ``repr(busy_s)`` and
``repr(lock_wait_s)`` (service sessions also their latencies and
non-zero meters); per run ``repr(elapsed_s)``, the shared clock's
breakdown in first-charge order, ``context_switches``,
``max_queue_depth``, ``crashed``, the write log's length and checksum,
and for clusters ``msgs`` / ``msg_bytes`` -- the values, not a hash of
them, so a moved pin names the session and the counter.  Floats are kept
as ``repr`` strings and compared as text.

A change that means to alter what a mix does regenerates the table and
says so; any other change must leave it alone::

    PYTHONPATH=src python tests/test_mix_pins.py --update
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
import sys
from dataclasses import asdict

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.dist import ShardedMixConfig, ShardedWorkload, load_sharded
from repro.recovery import CrashInjector, TransientFaultInjector
from repro.service import MixConfig, WorkloadMixer

PINS_PATH = pathlib.Path(__file__).parent / "mix_pins.json"

#: The chaos suites' scale: 10 providers x 30 patients, loads in ms.
SCALE = 0.00001

#: Outcome counters of a service session (``SessionMetrics``).
SERVICE_COUNTERS = (
    "committed", "aborted", "deadlocks", "timeouts", "conflicts",
    "lock_waits", "retries", "gave_up", "cancelled", "over_budget",
    "io_failures", "queries", "updates", "rows", "batches", "peak_rows",
)
#: Outcome counters of a sharded session.
SHARDED_COUNTERS = (
    "committed", "aborted", "deadlocks", "timeouts", "retries",
    "gave_up", "io_failures", "unavailable", "rows",
)


def _faults() -> TransientFaultInjector:
    return TransientFaultInjector(
        seed=3,
        read_fault_rate=0.05,
        read_fault_persistence=0.9,
        storm_mean_gap_s=0.2,
        storm_len_s=0.1,
        storm_timeout_s=0.002,
    )


def _service_config(**overrides) -> MixConfig:
    fields = {
        "updaters": 3, "ops_per_client": 4, "seed": 11, "hot_set": 4,
        "scan_selectivity_pct": 90.0, **overrides,
    }
    return MixConfig.from_clients(6, **fields)


def _sharded_config(**overrides) -> ShardedMixConfig:
    fields = {
        "ops_per_client": 4, "seed": 5, "hot_set": 4, "max_retries": 1,
        "scan_selectivity_pct": 90.0, **overrides,
    }
    return ShardedMixConfig.from_clients(6, **fields)


#: name -> (MixConfig, WorkloadMixer keyword arguments).
SERVICE_CELLS: dict[str, tuple[MixConfig, dict]] = {
    f"service/{isolation}/{optimizer}/batch-{batch_size or 'default'}": (
        _service_config(
            isolation=isolation, optimizer=optimizer, batch_size=batch_size
        ),
        {},
    )
    for isolation in ("2pl", "si")
    for optimizer in ("heuristic", "cost")
    for batch_size in (None, 7)
}
SERVICE_CELLS.update({
    "service/max-active-2": (_service_config(max_active=2), {}),
    "service/lock-timeout": (
        _service_config(lock_timeout_s=0.25, updaters=4, hot_set=2), {},
    ),
    "service/keyed": (
        _service_config(update_values="keyed", isolation="si"), {},
    ),
    "service/server-cache-4": (_service_config(server_cache_pages=4), {}),
    "service/crash-mix-run": (
        _service_config(), {"injector": lambda: CrashInjector("mix-run", 20)},
    ),
    "service/transient-faults": (
        _service_config(lock_timeout_s=0.5), {"faults": _faults},
    ),
})

#: name -> (load_sharded keyword arguments, ShardedMixConfig, faults?, kill?).
SHARDED_CELLS: dict[str, tuple[dict, ShardedMixConfig, bool, bool]] = {
    f"sharded/{n_shards}x{scheme}": (
        {"n_shards": n_shards, "scheme": scheme},
        _sharded_config(), False, False,
    )
    for n_shards in (1, 2, 4)
    for scheme in ("hash", "range")
}
SHARDED_CELLS.update({
    "sharded/replicated-kill": (
        {"n_shards": 2, "replicas": 1}, _sharded_config(),
        False, True,
    ),
    "sharded/transient-faults": (
        {"n_shards": 2, "lock_timeout_s": 0.5}, _sharded_config(),
        True, False,
    ),
})

CELLS = list(SERVICE_CELLS) + list(SHARDED_CELLS)


def _write_log(write_log: list) -> dict:
    """Length and ordered fingerprint of an acked-write log."""
    text = "\n".join(repr(entry) for entry in write_log)
    return {
        "writes": len(write_log),
        "write_log": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def _run_cell(report, clock, write_log: list) -> dict:
    """What is pinned of a whole run, for either kind of mix."""
    return {
        "elapsed_s": repr(report.elapsed_s),
        "breakdown": {k: repr(v) for k, v in clock.breakdown().items()},
        "context_switches": report.context_switches,
        "crashed": report.crashed,
        **_write_log(write_log),
    }


def measure_service(config: MixConfig, extras: dict) -> dict:
    derby = load_derby(DerbyConfig.db_1to3(scale=SCALE))
    mixer = WorkloadMixer(
        derby, config, **{name: make() for name, make in extras.items()}
    )
    report = mixer.run()
    cell = _run_cell(report, derby.db.clock, mixer.write_log)
    cell["max_queue_depth"] = report.max_queue_depth
    for s in report.sessions:
        m = s.metrics
        cell[s.name] = {
            "profile": s.profile,
            **{name: getattr(m, name) for name in SERVICE_COUNTERS},
            "busy_s": repr(m.busy_s),
            "lock_wait_s": repr(m.lock_wait_s),
            "queue_wait_s": repr(m.queue_wait_s),
            "latencies_s": [repr(x) for x in m.latencies_s],
            "meters": {k: n for k, n in asdict(m.meters).items() if n},
        }
    return cell


def measure_sharded(
    load: dict, config: ShardedMixConfig, faults: bool, kill: bool
) -> dict:
    cluster = load_sharded(DerbyConfig.db_1to3(scale=SCALE), **load)
    if kill:
        cluster.schedule_kill(0, at_s=0.05)
    workload = ShardedWorkload(
        cluster, config, faults=_faults() if faults else None
    )
    report = workload.run()
    cell = _run_cell(report, cluster.clock, workload.write_log)
    cell["msgs"] = cluster.msgs
    cell["msg_bytes"] = cluster.msg_bytes
    cell["failovers"] = list(cluster.route.failovers)
    for s in report.sessions:
        cell[s.name] = {
            "profile": s.profile,
            **{name: getattr(s.metrics, name) for name in SHARDED_COUNTERS},
            "lock_wait_s": repr(s.metrics.lock_wait_s),
        }
    return cell


def measure(name: str) -> dict:
    if name in SERVICE_CELLS:
        return measure_service(*SERVICE_CELLS[name])
    return measure_sharded(*SHARDED_CELLS[name])


def differences(name: str, got: dict, want: dict) -> list[str]:
    """One line per value that differs, naming the cell, the session (or
    run-level field) and the value."""
    lines = []
    for field in sorted(set(got) | set(want)):
        a, b = got.get(field), want.get(field)
        if field == "breakdown" and a and b and list(a) != list(b):
            lines.append(
                f"{name}: bucket order {list(a)} != pinned {list(b)}"
            )
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    lines.append(
                        f"{name}: {field}[{key}] {a.get(key)!r} "
                        f"!= pinned {b.get(key)!r}"
                    )
        elif a != b:
            lines.append(f"{name}: {field} {a!r} != pinned {b!r}")
    return lines


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", CELLS)
def test_mix_pins(pins, name):
    assert name in pins, f"no pins for {name}: run this file with --update"
    moved = differences(name, measure(name), pins[name])
    assert not moved, (
        f"{len(moved)} pinned mix value(s) moved:\n  "
        + "\n  ".join(moved[:40])
        + "\nIf the mix was meant to behave differently, regenerate with\n"
        "    PYTHONPATH=src python tests/test_mix_pins.py --update\n"
        "and declare the change; otherwise this is a regression."
    )


def test_every_pinned_cell_has_a_case(pins):
    assert sorted(pins) == sorted(CELLS)


def test_pins_reach_every_outcome_of_the_session_loop(pins):
    """The table is only a net for the retry loop if the cells actually
    deadlock, time out, conflict, retry, give up, lose a page, find a
    shard down, queue at the gate and crash."""
    seen: dict[str, int] = {}
    for cell in pins.values():
        for value in cell.values():
            if isinstance(value, dict) and "profile" in value:
                for name in SERVICE_COUNTERS + SHARDED_COUNTERS:
                    seen[name] = seen.get(name, 0) + value.get(name, 0)
    for name in ("deadlocks", "timeouts", "conflicts", "retries", "gave_up",
                 "io_failures", "unavailable", "aborted", "committed"):
        assert seen[name] > 0, f"no pinned cell counts any {name}"
    assert pins["service/max-active-2"]["max_queue_depth"] > 0
    assert pins["service/crash-mix-run"]["crashed"] is True
    assert pins["sharded/replicated-kill"]["failovers"] == [1, 0]


def test_comparison_sees_one_counter_of_one_session(pins):
    """Nudge one pinned counter of one session: exactly that value is
    reported, so cells are compared value by value."""
    name = "sharded/2xhash"
    cell = pins[name]
    assert differences(name, cell, copy.deepcopy(cell)) == []
    nudged = copy.deepcopy(cell)
    nudged["updater0"]["aborted"] += 1
    moved = differences(name, cell, nudged)
    assert len(moved) == 1 and "sharded/2xhash: updater0[aborted]" in moved[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit(__doc__)
    table = {name: measure(name) for name in CELLS}
    with PINS_PATH.open("w") as out:
        # One session (or run-level value) per line: a moved pin is a
        # one-line diff.
        out.write("{\n")
        for c, (name, cell) in enumerate(table.items()):
            out.write(f" {json.dumps(name)}: {{\n")
            out.write(",\n".join(
                f"  {json.dumps(field)}: {json.dumps(value)}"
                for field, value in cell.items()
            ))
            out.write("\n }" + ("," if c < len(table) - 1 else "") + "\n")
        out.write("}\n")
    print(f"wrote {len(table)} cells to {PINS_PATH}")
