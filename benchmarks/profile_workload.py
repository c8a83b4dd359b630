"""Profile one warmed pass of a wall-clock workload.

    make profile WORKLOAD=bulk_load
    python benchmarks/profile_workload.py bulk_load --top 40
    python benchmarks/profile_workload.py oql_selection --callers 'dataclasses.*fields'

Runs the workload's set-up, one untimed warm-up pass and then one pass
under ``cProfile`` -- the same traced pass ``benchmarks/wallclock/worker.py``
takes its counts from, so ``total calls`` here is that run's
``host_calls`` -- and prints the calls per layer and the top functions by
self time and by call count; ``--callers PATTERN`` adds, for every
function whose label matches, who calls it and how often -- which is how
a storm of small calls (``fields()`` under every meter snapshot) is
traced to its source.  ``cProfile`` taxes every call but not the
work inside native code, so use this to find candidates and the
benchmark itself (tracing off) to measure them.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "wallclock"))

import attribution  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from timing import HostTimer  # noqa: E402


def _label(code) -> str:
    """``file:line(qualname)`` of a profiler row (a builtin is a string)."""
    if isinstance(code, str):
        return code
    filename = code.co_filename
    at = filename.rfind("/repro/")
    short = filename[at + 1:] if at >= 0 else filename.rsplit("/", 1)[-1]
    return f"{short}:{code.co_firstlineno}({code.co_qualname})"


def profile_pass(name: str, smoke: bool) -> list:
    """``getstats()`` rows of one pass of workload ``name`` at the
    driver's default seed, after its set-up and one warm-up pass."""
    workload = workloads.WORKLOADS[name](worker.DEFAULT_SEED, smoke)
    workload.setup(lambda _name, _klass, fn: fn())
    timer = HostTimer()
    worker.run_pass(workload, timer)
    profile = attribution.ThreadedProfile()
    done = worker.run_pass(workload, timer, worker.Tracer(), profile)
    errors = [f"{d.name}: {d.error}" for d in done if d.error]
    if errors:
        raise SystemExit("ops failed under the profiler:\n" + "\n".join(errors))
    return profile.entries()


def report(entries: list, top: int) -> None:
    table = attribution.attribute(entries)
    print(f"total calls: {table.total_calls:,}")
    print("calls per layer: " + ", ".join(
        f"{layer} {calls:,}"
        for layer, calls in sorted(table.calls.items(), key=lambda kv: -kv[1])
    ))
    # One row per function: the session threads each have their own.
    rows: dict[object, list] = {}
    for entry in entries:
        row = rows.setdefault(entry.code, [0, 0.0])
        row[0] += entry.callcount
        row[1] += entry.inlinetime
    for title, column in (("self time", 1), ("call count", 0)):
        print(f"\ntop {top} by {title}")
        print(f"{'calls':>12} {'self s':>9}  function")
        ranked = sorted(rows.items(), key=lambda kv: -kv[1][column])
        for code, (calls, seconds) in ranked[:top]:
            print(f"{calls:12,} {seconds:9.3f}  {_label(code)}")


def report_callers(entries: list, pattern: str) -> None:
    """For every function whose label matches ``pattern`` (a regular
    expression, searched), its callers by call count."""
    wanted = re.compile(pattern)
    callers: dict[str, dict[str, int]] = {}
    for entry in entries:
        for edge in entry.calls or ():
            callee = _label(edge.code)
            if wanted.search(callee):
                counts = callers.setdefault(callee, {})
                caller = _label(entry.code)
                counts[caller] = counts.get(caller, 0) + edge.callcount
    if not callers:
        print(f"\nno called function matches {pattern!r}")
    for callee, counts in sorted(
        callers.items(), key=lambda kv: -sum(kv[1].values())
    ):
        print(f"\ncallers of {callee}  ({sum(counts.values()):,} calls)")
        for caller, calls in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"{calls:12,}  {caller}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the scale, as run.py --smoke")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--callers", metavar="PATTERN",
                        help="also list the callers of every function "
                             "whose file:line(qualname) label matches")
    args = parser.parse_args(argv)
    entries = profile_pass(args.workload, args.smoke)
    report(entries, args.top)
    if args.callers:
        report_callers(entries, args.callers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
