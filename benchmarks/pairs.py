"""Alternating parent/change pairs of one wall-clock workload.

    make pairs BASE=<rev> WORKLOAD=tree_join PAIRS=10
    python benchmarks/pairs.py <rev> tree_join 10

Checks ``<rev>`` out into a temporary ``git worktree`` and runs
``benchmarks/wallclock/run.py --workload W --seed S --seconds 8 --trace 0``
in it and in this working tree, once each at seeds 1..N, alternating
which tree runs first (a slow minute then taxes both sides alike).  Per
pair it prints ``host_s``, ``host_calls``, ``peak_rss_mb``, ``correct``
(both runs correct, no failed operation) and ``sim`` (``sim_elapsed_s``,
``sim_work_per_s`` and ``sim_disk_ios`` equal on both sides); at the end,
for each of ``host_s``, ``peak_rss_mb`` and ``setup_s``, the medians and
quartiles of each side and the change's wins and median move, then its
``host_calls`` against the base's.  This is the protocol a perf or
memory claim is judged by: the change wins at least nine of ten pairs
on the claimed metric and its median beats the base's by more than the
base's interquartile range (docs/benchmarking-tips.md, "Measuring a
claim in pairs").  The runs are sequential: each pins itself to the
lowest CPU.
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
#: The metrics summarised per side, all lower-is-better.
SUMMARY = ("host_s", "peak_rss_mb", "setup_s")


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
    values: dict[str, dict[str, list[float]]] = {
        side: {name: [] for name in (*SUMMARY, "host_calls")} for side in sides
    }
    print(f"{'seed':>4} {'first':>6}  {'base host_s':>11} {'change host_s':>13}"
          f"  {'base calls':>10} {'change calls':>12}"
          f"  {'base rss':>8} {'change rss':>10}  correct  sim")
    for seed in range(1, n + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        results = {side: run(sides[side], workload, seed) for side in order}
        for side, result in results.items():
            for name, column in values[side].items():
                column.append(result["metrics"][name]["value"])
        correct = all(
            r["correct"] and not r["failed"] for r in results.values()
        )
        sim = len({
            tuple(r["metrics"][name]["value"] for name in SIM)
            for r in results.values()
        }) == 1
        base, change = values["base"], values["change"]
        print(f"{seed:>4} {order[0]:>6}  {base['host_s'][-1]:>11.4f} "
              f"{change['host_s'][-1]:>13.4f}  {base['host_calls'][-1]:>10} "
              f"{change['host_calls'][-1]:>12}  {base['peak_rss_mb'][-1]:>8.2f} "
              f"{change['peak_rss_mb'][-1]:>10.2f}  {correct!s:>7}  {sim}")
    for name in SUMMARY:
        for side in sides:
            q1, median, q3 = quartiles(values[side][name])
            print(f"{side:>6} {name} median {median:.4f}  quartiles "
                  f"{q1:.4f} / {q3:.4f}  IQR {q3 - q1:.4f}")
        base, change = values["base"][name], values["change"][name]
        wins = sum(c < b for b, c in zip(base, change))
        moved = statistics.median(change) / statistics.median(base) - 1
        print(f"change wins {wins}/{n} pairs on {name}; median {moved:+.1%}")
    calls_change = [
        c / b - 1
        for b, c in zip(values["base"]["host_calls"], values["change"]["host_calls"])
    ]
    print(f"host_calls {min(calls_change):+.1%} .. {max(calls_change):+.1%}")


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
