"""Alternating parent/change pairs of one wall-clock workload.

    make pairs BASE=<rev> WORKLOAD=tree_join PAIRS=10
    python benchmarks/pairs.py <rev> tree_join 10

Checks ``<rev>`` out into a temporary ``git worktree`` and runs
``benchmarks/wallclock/run.py --workload W --seed S --seconds 8 --trace 0``
in it and in this working tree, once each at seeds 1..N, alternating
which tree runs first (a slow minute then taxes both sides alike).  Per
pair it prints ``host_s``, ``host_calls``, ``correct`` (both runs
correct, no failed operation) and ``sim`` (``sim_elapsed_s``,
``sim_work_per_s`` and ``sim_disk_ios`` equal on both sides); at the end the
medians and quartiles of each side's ``host_s``, the change's wins and
its ``host_calls`` against the base's.  This is the protocol a perf
claim is judged by: the change wins at least nine of ten pairs and its
median beats the base's by more than the base's interquartile range
(docs/benchmarking-tips.md, "Measuring a claim in pairs").  The runs
are sequential: each pins itself to the lowest CPU.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SIM = ("sim_elapsed_s", "sim_work_per_s", "sim_disk_ios")


def run(tree: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one ``run.py`` in ``tree``."""
    out = subprocess.run(
        [sys.executable, "benchmarks/wallclock/run.py", "--workload",
         workload, "--seed", str(seed), "--seconds", "8", "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs(base_tree: Path, workload: str, n: int) -> None:
    sides = {"base": base_tree, "change": HERE}
    host_s: dict[str, list[float]] = {"base": [], "change": []}
    calls: dict[str, list[int]] = {"base": [], "change": []}
    print(f"{'seed':>4} {'first':>6}  {'base host_s':>11} {'change host_s':>13}"
          f"  {'base calls':>10} {'change calls':>12}  correct  sim")
    for seed in range(1, n + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        results = {side: run(sides[side], workload, seed) for side in order}
        for side, result in results.items():
            host_s[side].append(result["metrics"]["host_s"]["value"])
            calls[side].append(result["metrics"]["host_calls"]["value"])
        correct = all(
            r["correct"] and not r["failed"] for r in results.values()
        )
        sim = len({
            tuple(r["metrics"][name]["value"] for name in SIM)
            for r in results.values()
        }) == 1
        print(f"{seed:>4} {order[0]:>6}  {host_s['base'][-1]:>11.4f} "
              f"{host_s['change'][-1]:>13.4f}  {calls['base'][-1]:>10} "
              f"{calls['change'][-1]:>12}  {correct!s:>7}  {sim}")
    for side in ("base", "change"):
        q1, median, q3 = quartiles(host_s[side])
        print(f"{side:>6} host_s median {median:.4f}  quartiles "
              f"{q1:.4f} / {q3:.4f}  IQR {q3 - q1:.4f}")
    wins = sum(c < b for b, c in zip(host_s["base"], host_s["change"]))
    base_median = statistics.median(host_s["base"])
    change = statistics.median(host_s["change"]) / base_median - 1
    calls_change = [c / b - 1 for b, c in zip(calls["base"], calls["change"])]
    print(f"change wins {wins}/{n} pairs; median host_s {change:+.1%}; "
          f"host_calls {min(calls_change):+.1%} .. {max(calls_change):+.1%}")


def main() -> None:
    base, workload, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), base],
            cwd=HERE, check=True, capture_output=True,
        )
        try:
            pairs(tree, workload, n)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                cwd=HERE, check=True,
            )


if __name__ == "__main__":
    main()
