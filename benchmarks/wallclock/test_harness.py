"""Tests of the harness itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/wallclock
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from collections import namedtuple
from types import SimpleNamespace

import pytest

import attribution
import timing
import worker

HERE = pathlib.Path(__file__).resolve().parent


# ------------------------------------------------------- calibrated time

class FakeClock:
    """A clock the fake kernel and the fake ops advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Seconds each kernel run takes from now on.
        self.kernel_s = 0.002

    def __call__(self) -> float:
        return self.now

    def kernel(self) -> None:
        self.now += self.kernel_s

    def op(self, seconds: float):
        def run():
            self.now += seconds
        return run


def test_window_closes_at_100ms_and_normalises_by_bracketing_samples():
    clock = FakeClock()
    timer = timing.HostTimer(clock=clock, kernel_fn=clock.kernel)
    timer.start()
    assert timer.cal_samples == [pytest.approx(0.002)]

    # 60 ms + 30 ms stay in one open window: no new speed sample yet.
    __, first = timer.time(clock.op(0.060))
    __, second = timer.time(clock.op(0.030))
    assert len(timer.cal_samples) == 1
    assert first.host_s == second.host_s == 0.0

    # The machine halves its speed; the next op takes the window past
    # 100 ms, which closes it with a sample at the new speed.
    clock.kernel_s = 0.004
    __, third = timer.time(clock.op(0.020))
    assert timer.cal_samples == [pytest.approx(0.002), pytest.approx(0.004)]
    speed = (0.002 + 0.004) / 2
    for op, raw in ((first, 0.060), (second, 0.030), (third, 0.020)):
        assert op.raw_s == pytest.approx(raw)
        assert op.host_s == pytest.approx(raw * 0.002 / speed)

    # A long op is a window of its own, bracketed by 4 ms and 4 ms:
    # at half speed 0.5 s of wall is 0.25 calibrated seconds.
    __, long_op = timer.time(clock.op(0.5))
    assert len(timer.cal_samples) == 3
    assert long_op.host_s == pytest.approx(0.25)


def test_calibration_is_outside_op_time():
    clock = FakeClock()
    timer = timing.HostTimer(clock=clock, kernel_fn=clock.kernel)
    __, op = timer.time(clock.op(0.2))
    # Two samples of five 2 ms kernel runs each passed on the clock.
    assert clock.now == pytest.approx(0.2 + 2 * 5 * 0.002)
    assert op.raw_s == pytest.approx(0.2)


def test_flush_closes_a_short_window():
    clock = FakeClock()
    timer = timing.HostTimer(clock=clock, kernel_fn=clock.kernel)
    __, op = timer.time(clock.op(0.010))
    assert op.host_s == 0.0
    timer.flush()
    assert op.host_s == pytest.approx(0.010)
    timer.flush()  # nothing open: no further sample
    assert len(timer.cal_samples) == 2


def test_median_of_passes_is_per_op():
    passes = [[1.0, 10.0, 5.0], [3.0, 30.0, 5.0], [2.0, 20.0, 50.0]]
    assert timing.median_of_passes(passes) == [2.0, 20.0, 5.0]
    # host_s is the sum of per-op medians, not the median pass total.
    assert sum(timing.median_of_passes(passes)) == 27.0
    with pytest.raises(ValueError):
        timing.median_of_passes([[1.0, 2.0], [1.0]])


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert timing.percentile(samples, 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="samples beyond"):
        timing.percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        timing.percentile(samples, 95)
    # Three passes of eight loads: no p90, by design.
    with pytest.raises(ValueError):
        timing.percentile(samples[:24], 90)


def test_kernel_is_deterministic():
    # Same work, call for call, in any two processes.
    first, second = timing.Kernel(), timing.Kernel()
    assert [first(), first()] == [second(), second()]


# ----------------------------------------------------- layer attribution

#: Stands in for a code object (hashable, like the real thing).
_code = namedtuple("_code", "co_filename co_qualname")


def _row(code, calls, self_s, callees=()):
    return SimpleNamespace(
        code=code, callcount=calls, inlinetime=self_s,
        calls=[SimpleNamespace(code=c, callcount=n, inlinetime=s)
               for c, n, s in callees],
    )


def test_outside_callees_are_charged_to_the_direct_callers_layer():
    get_attr = _code("/x/src/repro/objects/manager.py", "ObjectManager.get_attr")
    charge = _code("/x/src/repro/simtime/clock.py", "SimClock.charge_us")
    enum_hash = _code("/usr/lib/python3.11/enum.py", "Enum.__hash__")
    runner = _code("/x/src/repro/bench/runner.py", "ExperimentRunner.run_join")
    harness = _code("/x/benchmarks/wallclock/workloads.py", "TreeJoin._run_join")
    unpack = "<built-in method _struct.unpack>"
    length = "<built-in method builtins.len>"
    table = attribution.attribute([
        _row(harness, 1, 0.1, [(length, 2, 0.01)]),
        _row(runner, 1, 0.2, [(length, 3, 0.02)]),
        _row(get_attr, 10, 1.0, [(unpack, 10, 0.5), (length, 5, 0.05)]),
        _row(charge, 20, 2.0, [(enum_hash, 40, 0.4)]),
        # The outside functions' own rows: totals over all callers.
        _row(unpack, 10, 0.5),
        _row(length, 11, 0.09),   # one more call than the edges explain
        _row(enum_hash, 40, 0.4),
    ])
    assert table.calls["objects"] == 10 + 10 + 5
    assert table.self_s["objects"] == pytest.approx(1.0 + 0.5 + 0.05)
    assert table.calls["simtime"] == 20 + 40     # stdlib callee included
    # repro.bench is not a layer; the harness and the unexplained call
    # are nobody's: all three land in "other".
    assert table.calls["other"] == (1 + 3) + (1 + 2) + 1
    assert table.total_calls == 1 + 1 + 10 + 20 + 10 + 11 + 40
    assert table.hot["simtime.charge_calls"] == 20
    assert table.hot["simtime.enum_hash_calls"] == 40
    assert table.hot["objects.get_attr_calls"] == 10
    assert table.share("simtime") == pytest.approx(2.4 / sum(table.self_s.values()))


def test_thread_handoff_waits_are_set_aside():
    yield_point = _code("/x/src/repro/service/scheduler.py",
                        "CooperativeScheduler.yield_point")
    run = _code("/x/src/repro/service/scheduler.py", "CooperativeScheduler.run")
    wait = _code("/usr/lib/python3.11/threading.py", "Condition.wait")
    acquire = "<method 'acquire' of '_thread.lock' objects>"
    any_ = "<built-in method builtins.any>"
    table = attribution.attribute([
        _row(yield_point, 5, 0.5, [(wait, 7, 0.07)]),
        _row(run, 1, 0.1, [(wait, 3, 0.03), (any_, 4, 0.04)]),
        _row(wait, 10, 0.1, [(acquire, 10, 9.0)]),
        _row(acquire, 10, 9.0),
        _row(any_, 4, 0.04),
    ])
    assert table.calls == {"service": 5}
    assert table.wait_calls == 1 + 10 + 10 + 4
    assert table.wait_s == pytest.approx(0.1 + 0.1 + 9.0 + 0.04)


def test_layer_of():
    assert attribution.layer_of("/r/src/repro/exec/operators/base.py") == "exec"
    assert attribution.layer_of("/r/src/repro/units.py") == "other"
    assert attribution.layer_of("/r/src/repro/bench/runner.py") == "other"
    assert attribution.layer_of("/usr/lib/python3.11/enum.py") is None
    assert attribution.layer_of("~") is None


# ---------------------------------------------------- the semantic check

def _done(name, digest, error=None):
    result = None if digest is None else SimpleNamespace(digest=lambda: digest)
    return worker.Done(name, "exec.join_nl_s", True, timing.OpTime(0.1),
                       result, error)


def test_digest_mismatch_is_a_failed_op():
    good = [10, "abc", 1.5, [1, 2, 3]]
    passes = [
        ("timed pass 1", [_done("a", good), _done("b", good)]),
        ("timed pass 2", [_done("a", good), _done("b", [10, "abc", 1.6, [1, 2, 3]])]),
        ("traced pass", [_done("a", good), _done("b", good)]),
    ]
    failed, problems = worker.semantic_check(passes, expected_ops=None)
    assert failed == [False, True]
    assert len(problems) == 1 and "timed pass 2" in problems[0]

    # Identical passes that disagree with expected.json fail every pass.
    failed, problems = worker.semantic_check(
        passes[:1] + passes[2:], expected_ops=[good, [11, "abc", 1.5, [1, 2, 3]]]
    )
    assert failed == [False, True]
    assert all("expected.json" in p for p in problems) and len(problems) == 2


def test_an_op_that_raised_is_a_failed_op():
    good = [1, None, 0.5, [0]]
    passes = [
        ("timed pass 1", [_done("a", good)]),
        ("traced pass", [_done("a", None, error="BenchError: boom")]),
    ]
    failed, problems = worker.semantic_check(passes, expected_ops=[good])
    assert failed == [True]
    assert "boom" in problems[0]


def test_expected_json_round_trips_digests_exactly():
    digest = [[538, None, 12.218045000000002, [0, 3, 77]], None]
    assert json.loads(json.dumps(digest)) == digest


# ------------------------------------------------------ end to end, smoke

def _smoke(hash_seed: str) -> dict[str, float]:
    """``host_calls`` per workload of one ``--smoke`` run."""
    calls = {}
    for workload in ("bulk_load", "tree_join", "oql_selection", "client_mix"):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--workload", workload, "--trace", "0"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        calls[workload] = result["metrics"]["host_calls"]["value"]
    return calls


def test_host_calls_do_not_depend_on_the_callers_hash_seed():
    assert _smoke("0") == _smoke("1")
