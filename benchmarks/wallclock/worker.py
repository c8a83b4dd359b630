"""One workload, one process: set-up, warm-up, timed passes, traced pass.

Started by ``run.py`` with ``PYTHONHASHSEED=0``.  Pins itself to the
lowest CPU it may use (``repro.service``'s scheduler hands a baton
between OS threads; unpinned, ``client_mix`` is 30 % slower and twice as
noisy), runs the protocol and prints one JSON result line.

The protocol, per README.md: set-up, one untimed warm-up pass, N timed
passes with tracing off, one traced pass (``cProfile`` plus spans) --
all over the identical op list, ``gc.collect()`` at the start of every
pass.  Timings come from the timed passes; counts from the traced one,
because a count does not care about profiler overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import statistics
import sys
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from timing import HostTimer, OpTime, median_of_passes, percentile

DEFAULT_SEED = 1997
EXPECTED_PATH = HERE / "expected.json"
TRACE_PATH = HERE / "trace.json"


@dataclass
class Done:
    """One op as it ran in one pass."""

    name: str
    klass: str
    is_work: bool
    time: OpTime
    #: ``None`` for ops without a simulated outcome (cold restarts) and
    #: for ops that raised.
    result: object = None
    error: str | None = None


@dataclass
class Tracer:
    """Spans of the traced pass, kept in memory until the worker exits."""

    spans: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    op_index: int = -1

    def span(self, name: str, fn):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_index,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - _T0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            return fn()
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - _T0


def _guarded(fn):
    """An op that raises is a failed op, not a dead benchmark."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(workload, timer: HostTimer, tracer=None, profile=None) -> list[Done]:
    """One pass over the workload's op list, one op after the other."""
    gc.collect()
    done = []
    timer.start()
    for index, op in enumerate(workload.ops()):
        if tracer is None:
            fn = op.run
        else:
            tracer.op_index = index
            inner = (
                (lambda op=op: op.staged(tracer.span))
                if op.staged is not None else op.run
            )

            def fn(op=op, inner=inner):
                profile.enable()
                try:
                    return tracer.span(op.klass, inner)
                finally:
                    profile.disable()

        (result, error), op_time = timer.time(lambda fn=fn: _guarded(fn))
        done.append(Done(op.name, op.klass, op.is_work, op_time, result, error))
    timer.flush()
    return done


def pass_digest(done: list[Done]) -> list:
    return [d.result.digest() if d.result is not None else None for d in done]


def digest_sha(digest: list) -> str:
    return hashlib.sha256(json.dumps(digest).encode()).hexdigest()[:16]


def semantic_check(
    passes: list[tuple[str, list[Done]]], expected_ops: list | None
) -> tuple[list[bool], list[str]]:
    """Simulated outputs are the semantic check: every pass must produce
    the first pass's digest, op by op, and (at the default seed) the
    committed one.  Returns which ops failed, and why."""
    reference = pass_digest(passes[0][1])
    failed = [False] * len(reference)
    problems: list[str] = []
    for label, done in passes:
        digest = pass_digest(done)
        for i, d in enumerate(done):
            if d.error is not None:
                wrong = d.error
            elif digest[i] != reference[i]:
                wrong = f"simulated digest differs from {passes[0][0]}"
            elif expected_ops is not None and digest[i] != expected_ops[i]:
                wrong = "simulated digest differs from expected.json"
            else:
                continue
            failed[i] = True
            problems.append(f"{label}, op {i} ({d.name}): {wrong}")
    return failed, problems


@dataclass
class Run:
    """Everything one worker measured, before it is boiled down."""

    workload: object
    timer: HostTimer
    #: Calibrated seconds of set-up by op class, warm-up pass included.
    setup_by_class: dict[str, float]
    timed: list[list[Done]]
    traced: list[Done]
    tracer: Tracer
    #: ``attribution.LayerTable`` of the traced pass.
    table: object
    peak_rss_mb: float

    def __post_init__(self) -> None:
        self.first = self.timed[0]
        self.host_per_op = median_of_passes(
            [[d.time.host_s for d in p] for p in self.timed]
        )
        self.host_s = sum(self.host_per_op)
        #: Calibrated ms of every unit of work in every timed pass.
        self.work_host_ms = [
            d.time.host_s * 1e3 for p in self.timed for d in p if d.is_work
        ]
        results = [d.result for d in self.first if d.result is not None]
        self.units = sum(r.units for r in results)
        self.sim_elapsed_s = sum(r.elapsed_s for r in results)
        self.meters = _sum_by(results, lambda r: r.meters)
        self.breakdown = _sum_by(results, lambda r: r.breakdown)
        self.layer = _sum_by(results, lambda r: r.layer)
        self.peak_live_rows = max(r.peak_live_rows for r in results)


def _sum_by(results: list, what) -> dict[str, float]:
    total: dict[str, float] = {}
    for result in results:
        for key, value in what(result).items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    meters = run.meters
    return {
        "setup_s": (sum(run.setup_by_class.values()), "s"),
        "host_s": (run.host_s, "s"),
        "work_per_host_s": (run.units / run.host_s, "1/s"),
        "host_calls": (run.table.total_calls, "count"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "sim_elapsed_s": (run.sim_elapsed_s, "s"),
        "sim_work_per_s": (run.units / run.sim_elapsed_s, "1/s"),
        "sim_disk_ios": (meters["disk_reads"] + meters["disk_writes"], "pages"),
    }


def per_layer_metrics(run: Run, attribution, workloads) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, for every workload: 0 where a layer is
    idle or a metric belongs to another workload."""
    out: dict[str, tuple[float, str]] = {}
    table, meters, layer = run.table, run.meters, run.layer

    # Attribution and hot spots: the traced pass's profile.
    for name in (*attribution.LAYERS, "other"):
        out[f"{name}.self_share"] = (table.share(name), "ratio")
        if name != "other":
            out[f"{name}.calls"] = (table.calls.get(name, 0), "count")
    for name, count in table.hot.items():
        out[name] = (count, "count")

    # Op classes: calibrated seconds of the harness's own calls.
    by_class = dict(run.setup_by_class)
    for d, host_s in zip(run.first, run.host_per_op):
        by_class[d.klass] = by_class.get(d.klass, 0.0) + host_s
    for klass in workloads.OP_CLASSES:
        out[klass] = (by_class.get(klass, 0.0), "s")

    # Statement latency and stages: oql_selection only.
    pairs = run.workload.pairs
    stage_s = dict.fromkeys(workloads.STATEMENT_STAGES, 0.0)
    for span in run.tracer.spans:
        if span["parent"] is not None:
            stage_s[span["name"]] += span["end_s"] - span["start_s"]
    traced_raw_s = sum(d.time.raw_s for d in run.traced if d.is_work)
    out["oql.stmt_host_ms_p50"] = (
        statistics.median(run.work_host_ms) if pairs else 0.0, "ms")
    out["oql.stmt_host_ms_p90"] = (
        percentile(run.work_host_ms, 90) if pairs else 0.0, "ms")
    for stage, seconds in stage_s.items():
        out[f"{stage}_share"] = (seconds / traced_raw_s, "ratio")
    out["opt.cost_vs_heuristic_sim_ratio"] = (
        sum(cost.elapsed_s for __, cost, __ in pairs)
        / sum(heuristic.elapsed_s for heuristic, __, __ in pairs)
        if pairs else 0.0,
        "ratio",
    )

    # Simulated cost and counters: exact.
    for bucket in workloads.BUCKETS:
        out[f"simtime.{bucket}_s"] = (run.breakdown.get(bucket, 0.0), "s")
    out["storage.disk_reads"] = (meters["disk_reads"], "pages")
    out["storage.disk_writes"] = (meters["disk_writes"], "pages")
    out["storage.records_moved"] = (meters["records_moved"], "count")
    for tier in ("client", "server"):
        hits = meters[f"{tier}_hits"]
        accesses = hits + meters[f"{tier}_faults"]
        out[f"buffer.{tier}_hit_ratio"] = (
            hits / accesses if accesses else 0.0, "ratio")
    out["buffer.rpcs"] = (meters["rpcs"], "count")
    out["objects.handles_allocated"] = (meters["handles_allocated"], "count")
    for name, unit in workloads.LAYER_COUNTERS.items():
        out[name] = (layer.get(name, 0), unit)
    out["exec.peak_live_rows"] = (run.peak_live_rows, "count")
    commits = layer.get("txn.commits", 0)
    outcomes = commits + layer.get("txn.aborts", 0)
    out["txn.commit_ratio"] = (commits / outcomes if outcomes else 0.0, "ratio")

    # The harness itself.
    samples = run.timer.cal_samples
    out["trace.overhead_ratio"] = (
        sum(d.time.host_s for d in run.traced) / run.host_s, "ratio")
    out["trace.spans"] = (len(run.tracer.spans), "count")
    out["trace.wait_calls"] = (table.wait_calls, "count")
    out["host.raw_wall_s"] = (
        statistics.median(sum(d.time.raw_s for d in p) for p in run.timed), "s")
    out["host.cal_ms_min"] = (min(samples) * 1e3, "ms")
    out["host.cal_spread"] = (
        statistics.quantiles(samples, n=10)[-1] / min(samples), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--timed", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # -- set-up, timed call by call ----------------------------------------
    timer = HostTimer()
    setup: list[Done] = []

    def call(name, klass, fn):
        result, op_time = timer.time(fn)
        setup.append(Done(name, klass, False, op_time))
        return result

    def load_modules():
        import attribution
        import workloads
        return attribution, workloads

    attribution, workloads = call("import", "harness.import_s", load_modules)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup(call)
    timer.flush()

    mode = "smoke" if args.smoke else "full"
    expected = None
    if args.seed == DEFAULT_SEED and not args.update_expected:
        expected = json.loads(EXPECTED_PATH.read_text())[mode][args.workload]

    # -- warm-up, timed passes, traced pass --------------------------------
    warmup = run_pass(workload, timer)
    warmup_sha = digest_sha(pass_digest(warmup))
    if expected is not None and warmup_sha != expected["warmup"]:
        print(
            f"{args.workload}: the warm-up pass's simulated digest "
            f"{warmup_sha} is not expected.json's {expected['warmup']}; "
            "timed passes refused.  If a cost-model change is declared, "
            "regenerate with --update-expected.",
            file=sys.stderr,
        )
        return 2
    setup_by_class = {"harness.warmup_s": sum(d.time.host_s for d in warmup)}
    for d in setup:
        setup_by_class[d.klass] = setup_by_class.get(d.klass, 0.0) + d.time.host_s

    timed = [run_pass(workload, timer) for __ in range(args.timed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer()
    profile = attribution.ThreadedProfile()
    traced = run_pass(workload, timer, tracer, profile)

    # -- the semantic check ------------------------------------------------
    passes = [(f"timed pass {i + 1}", p) for i, p in enumerate(timed)]
    passes.append(("traced pass", traced))
    failed_ops, problems = semantic_check(
        passes, expected["ops"] if expected is not None else None
    )
    for heuristic, cost, comparable in workload.pairs:
        if comparable and (heuristic.rows, heuristic.checksum) != (
            cost.rows, cost.checksum
        ):
            problems.append("heuristic and cost-based rows differ")
    if any(d.result is None for d in timed[0] if d.is_work):
        # Nothing to aggregate: report the failure, not a crash.
        print("\n".join(problems), file=sys.stderr)
        return 3

    if args.update_expected:
        book = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        book.setdefault(mode, {})[args.workload] = {
            "warmup": warmup_sha, "ops": pass_digest(timed[0]),
        }
        EXPECTED_PATH.write_text(
            json.dumps(book, separators=(",", ":"), sort_keys=True) + "\n"
        )

    # -- the result --------------------------------------------------------
    run = Run(
        workload, timer, setup_by_class, timed, traced, tracer,
        attribution.attribute(profile.entries()), peak_rss_mb,
    )

    def as_metrics(table: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    work = [(i, d) for i, d in enumerate(run.first) if d.is_work]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "unit": workload.unit,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": sum(d.result.attempted for __, d in work),
        "failed": sum(d.result.failed + failed_ops[i] for i, d in work),
        "ops_per_pass": len(run.first),
        "latency_samples": len(run.work_host_ms),
        "end_to_end": as_metrics(end_to_end_metrics(run)),
        "per_layer": as_metrics(per_layer_metrics(run, attribution, workloads)),
    }
    TRACE_PATH.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "ops": [d.name for d in traced],
        "spans": tracer.spans,
        "per_layer": result["per_layer"],
    }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
