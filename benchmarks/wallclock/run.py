#!/usr/bin/env python3
"""The two-clock benchmark: one driver, four workloads.

    python3 benchmarks/wallclock/run.py            # everything, every metric
    python3 benchmarks/wallclock/run.py --workload tree_join --seed 7 \\
        --seconds 8 --trace 0                      # one run, as the driver asks
    python3 benchmarks/wallclock/run.py --smoke    # < 20 s: imports + digests
    python3 benchmarks/wallclock/run.py --selfcheck 5 > NOISE.md

Each workload runs in its own worker process (``worker.py``) under
``PYTHONHASHSEED=0``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The worker runs the same protocol either way --
timings come from its untraced passes and counts from its traced pass --
so the flag only selects what is printed.  README.md explains every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"
WORKLOADS = ("bulk_load", "tree_join", "oql_selection", "client_mix")
DEFAULT_SEED = 1997
#: Seconds one pass is sized to at quiet speed; ``--seconds`` buys
#: whole passes of this length.
PASS_S = 1.5
#: A worker that has not finished by now is hung (the contract's limit
#: is 180 s per run).
WORKER_TIMEOUT_S = 170
#: Metrics that repeat exactly at a fixed seed.
EXACT = ("host_calls", "sim_elapsed_s", "sim_work_per_s", "sim_disk_ios")


def timed_passes(seconds: float) -> int:
    return max(1, min(5, round(seconds / PASS_S)))


def run_worker(workload: str, seed: int, passes: int, smoke: bool = False,
               update_expected: bool = False) -> dict:
    """Run one workload in a fresh process; returns its result object."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--timed", str(passes),
    ]
    if smoke:
        command.append("--smoke")
    if update_expected:
        command.append("--update-expected")
    done = subprocess.run(
        command,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_metrics(result: dict, groups: tuple[str, ...]) -> None:
    print(
        f"# {result['workload']} (seed {result['seed']}, {result['mode']}): "
        f"{'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"{result['ops_per_pass']} harness calls per pass, "
        f"{result['latency_samples']} latency samples; "
        f"work unit: {result['unit']}"
    )
    for problem in result["problems"]:
        print(f"#   {problem}")
    for group in groups:
        for name, metric in result[group].items():
            print(f"{name:36} {metric['value']:.9g} {metric['unit']}")


def final_line(result: dict, group: str) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result[group],
    })


# ------------------------------------------------------------- selfcheck

def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and IQR as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def selfcheck(n: int, seed: int, vary_seed: bool) -> int:
    """Run the whole benchmark ``n`` times, twice over; print each
    end-to-end metric's spread per workload; fail when the two sets
    disagree by more than the metric's bound, or an exact metric moved
    between two runs of one seed."""
    spec = json.loads(SPEC_PATH.read_text())
    metrics = spec["end_to_end"]
    passes = timed_passes(spec["run_seconds"])
    seeds = [seed + i if vary_seed else seed for i in range(n)]
    sets: list[dict[str, list[dict]]] = []
    for __ in range(2):
        sets.append({
            workload: [run_worker(workload, s, passes) for s in seeds]
            for workload in WORKLOADS
        })
    failures: list[str] = []
    print(f"## {2 * n} runs per workload in two sets of {n}, seeds {seeds}")
    print()
    print("| workload | metric | unit | set | median | q1 | q3 | IQR/median "
          "| bound | second vs first |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    # Raw wall rides along unbounded, so the effect of calibration shows.
    raw_wall = {"name": "host.raw_wall_s", "unit": "s", "better": "lower",
                "bound": None}
    rows = [(m, "end_to_end") for m in metrics] + [(raw_wall, "per_layer")]
    for workload in WORKLOADS:
        for metric, group in rows:
            name = metric["name"]
            medians = []
            for label, runs in zip("AB", sets):
                values = [run[group][name]["value"] for run in runs[workload]]
                median, q1, q3, rel = _spread(values)
                medians.append(median)
                shift = ""
                if label == "B":
                    worse = (medians[1] - medians[0]) / abs(medians[0])
                    if metric["better"] == "higher":
                        worse = -worse
                    shift = f"{worse:+.2%} worse"
                    if metric["bound"] is not None and worse > metric["bound"]:
                        failures.append(
                            f"{workload} {name}: second set's median is "
                            f"{worse:.2%} worse (bound {metric['bound']:.0%})"
                        )
                bound = "" if metric["bound"] is None else f"{metric['bound']:.0%}"
                print(f"| {workload} | {name} | {metric['unit']} | {label} | "
                      f"{median:.6g} | {q1:.6g} | {q3:.6g} | {rel:.2%} | "
                      f"{bound} | {shift} |")
        for name in EXACT:
            by_seed: dict[int, set] = {}
            for runs in sets:
                for run in runs[workload]:
                    by_seed.setdefault(run["seed"], set()).add(
                        run["end_to_end"][name]["value"])
            for s, values in by_seed.items():
                if len(values) > 1:
                    failures.append(
                        f"{workload} {name} at seed {s} is not exact: "
                        f"{sorted(values)}")
        for runs in sets:
            for run in runs[workload]:
                if not run["correct"] or run["failed"]:
                    failures.append(
                        f"{workload} seed {run['seed']}: incorrect or failed ops"
                    )
    print()
    if failures:
        print("FAILED:")
        for failure in failures:
            print(f"- {failure}")
        return 1
    print("Every exact metric repeated exactly at each seed; every second-set "
          "median is within its bound of the first; no op failed.")
    return 0


# ------------------------------------------------------------------ main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5 * PASS_S,
                        help="timed measurement, in whole passes of about "
                             f"{PASS_S:g} s (1 to 5 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="print end-to-end (0) or per-layer (1) metrics; "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="scale / 10, one timed pass, traced pass on")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate expected.json (default seed only)")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5,
                        metavar="N", help="N runs twice over; see NOISE.md")
    parser.add_argument("--vary-seed", action="store_true",
                        help="selfcheck: run i uses seed + i, as the driver "
                             "varies seeds")
    args = parser.parse_args(argv)

    if args.selfcheck is not None:
        return selfcheck(args.selfcheck, args.seed, args.vary_seed)
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("expected.json holds the default seed only")

    passes = 1 if args.smoke else timed_passes(args.seconds)
    groups = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
              1: ("per_layer",)}[args.trace]
    results = [
        run_worker(w, args.seed, passes, args.smoke, args.update_expected)
        for w in ([args.workload] if args.workload else WORKLOADS)
    ]
    for result in results:
        print_metrics(result, groups)
    if args.workload:
        print(final_line(
            results[0], "per_layer" if args.trace == 1 else "end_to_end"))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
