"""Load at scale: what the host pays to build the 1:3 database.

The paper's Section 3.2 is a load that took twelve hours until the
machinery it did not need was switched off.  Ours pays the same kind of
tax to CPython's cyclic collector: ``generate`` and ``load_derby`` build
hundreds of thousands of long-lived container objects, the collector
walks them again and again and frees nothing.  This bench is the
committed trajectory of that cost (ROADMAP item 1): per scale, for the
1:3 database under class clustering,

* ``objects``, ``generate_s``, ``load_s`` (raw ``perf_counter`` seconds
  -- this is a whole-process measurement, not the calibrated ``host_s``
  of ``benchmarks/wallclock``),
* ``peak_rss_mb`` (``ru_maxrss`` of the process that ran the one scale),
* cyclic collections by generation inside ``generate`` and inside
  ``load_derby`` (raw seconds do not repeat on a shared machine; these
  counts do, and they are the cause),
* ``sim_load_s``, the simulated seconds of the load, which no host-side
  change may move.

Every scale runs in its own process, so one scale's heap is not the
next one's collector work and ``ru_maxrss`` is that scale's alone -- and
it runs there ``REPEATS`` times, each in a fresh process: on a shared
machine the same load took 14.3 to 22.4 s within ten minutes, so the
row keeps the *fastest* ``generate_s + load_s`` (what the code costs
when nothing else wants the machine) and lists every total it saw.

``BENCH_scale.json`` keeps one list of rows per *label*.  A run replaces
the rows of its own label and leaves the others, so the parent commit's
row is measured from a scratch clone::

    git clone . /tmp/parent && git -C /tmp/parent checkout <parent>
    PYTHONPATH=/tmp/parent/src python benchmarks/bench_scale.py --label parent
    make scale                       # --label change, this tree

Hard gates -- the script exits nonzero if any fails:

* **simulated seconds did not move**: every label reports the same
  ``sim_load_s`` at a scale (148.552 s at 0.05, 595.176 s at 0.2);
* **the collector is out of the load**: zero generation-2 collections
  inside ``load_derby`` for the ``change`` label;
* **memory is not the price**: ``change``'s ``peak_rss_mb`` is within
  2 % of ``parent``'s at every scale both ran;
* **it is faster where it matters**: at the largest scale both ran,
  ``change``'s ``generate_s + load_s`` is below ``parent``'s.

``--smoke`` runs scale 0.01 only (CI's ``wallclock-smoke`` job), writes
nothing and holds the two gates that do not depend on the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# Appended, not inserted: a PYTHONPATH naming another checkout's src
# (the parent's) wins over this tree's.
sys.path.append(str(REPO_ROOT / "src"))

SCALES = (0.01, 0.05, 0.2)
SMOKE_SCALES = (0.01,)
#: Fresh processes per scale; the fastest one is the row.
REPEATS = 3
#: Peak RSS the change may add to the parent's, as a share of it.
RSS_TOLERANCE = 0.02


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def _since(before: list[int]) -> list[int]:
    return [now - then for now, then in zip(_collections(), before)]


def measure(scale: float) -> dict[str, object]:
    """One row: generate and load the 1:3 / class database at ``scale``
    in this process, from whatever ``repro`` is on ``sys.path``."""
    from repro.cluster import load_derby
    from repro.derby import DerbyConfig
    from repro.derby.generator import generate

    config = DerbyConfig.db_1to3(scale=scale)
    before = _collections()
    started = time.perf_counter()
    logical = generate(config)
    generate_s = time.perf_counter() - started
    generate_collections = _since(before)

    before = _collections()
    started = time.perf_counter()
    derby = load_derby(config, logical=logical)
    load_s = time.perf_counter() - started
    load_collections = _since(before)

    return {
        "scale": scale,
        "objects": derby.load_report.objects_created,
        "generate_s": round(generate_s, 3),
        "load_s": round(load_s, 3),
        # ru_maxrss is kilobytes on Linux
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "generate_collections": generate_collections,
        "load_collections": load_collections,
        "sim_load_s": derby.load_report.seconds,
    }


def measure_in_own_process(scale: float) -> dict[str, object]:
    """The fastest of ``REPEATS`` fresh processes, with every total."""
    rows = []
    for __ in range(REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--one", repr(scale)],
            check=True, capture_output=True, text=True,
        )
        rows.append(json.loads(done.stdout.splitlines()[-1]))
    totals = [round(row["generate_s"] + row["load_s"], 3) for row in rows]
    return {**rows[totals.index(min(totals))], "totals_s": totals}


def check(rows_by_label: dict[str, list[dict]], one_machine: bool) -> list[str]:
    """Gate failures, as messages (empty = all gates passed).  Seconds
    and megabytes are compared only when ``one_machine`` says every row
    was measured on the same one."""
    failures: list[str] = []
    by_scale: dict[float, dict[str, dict]] = {}
    for label, rows in rows_by_label.items():
        for row in rows:
            by_scale.setdefault(row["scale"], {})[label] = row
    for scale, rows in sorted(by_scale.items()):
        sims = {label: row["sim_load_s"] for label, row in rows.items()}
        if len(set(sims.values())) > 1:
            failures.append(f"scale {scale}: simulated load seconds moved: {sims}")
        change, parent = rows.get("change"), rows.get("parent")
        if change is not None and change["load_collections"][2]:
            failures.append(
                f"scale {scale}: {change['load_collections'][2]} generation-2 "
                "collections inside load_derby"
            )
        if one_machine and change is not None and parent is not None:
            ceiling = parent["peak_rss_mb"] * (1.0 + RSS_TOLERANCE)
            if change["peak_rss_mb"] > ceiling:
                failures.append(
                    f"scale {scale}: peak RSS {change['peak_rss_mb']} MB, "
                    f"parent {parent['peak_rss_mb']} MB (+{RSS_TOLERANCE:.0%} "
                    f"is {ceiling:.1f})"
                )
    both = [s for s, rows in by_scale.items() if {"change", "parent"} <= set(rows)]
    if one_machine and both:
        rows = by_scale[max(both)]
        total = {
            label: rows[label]["generate_s"] + rows[label]["load_s"]
            for label in ("parent", "change")
        }
        if total["change"] >= total["parent"]:
            failures.append(
                f"scale {max(both)}: generate + load {total['change']:.1f} s, "
                f"parent {total['parent']:.1f} s"
            )
    return failures


def table(rows_by_label: dict[str, list[dict]]) -> str:
    lines = [
        f"{'label':<8} {'scale':>5} {'objects':>8} {'generate_s':>10} "
        f"{'load_s':>8} {'rss_mb':>7} {'gc in generate':>16} "
        f"{'gc in load':>14} {'sim_load_s':>11}"
    ]
    for label, rows in rows_by_label.items():
        for row in rows:
            lines.append(
                f"{label:<8} {row['scale']:>5} {row['objects']:>8} "
                f"{row['generate_s']:>10.3f} {row['load_s']:>8.3f} "
                f"{row['peak_rss_mb']:>7.1f} "
                f"{'/'.join(map(str, row['generate_collections'])):>16} "
                f"{'/'.join(map(str, row['load_collections'])):>14} "
                f"{row['sim_load_s']:>11.3f}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="scale 0.01 only, nothing written (CI); only the gates that "
             "do not depend on the machine",
    )
    parser.add_argument(
        "--label", default="change",
        help="whose rows these are in the JSON: 'parent' when PYTHONPATH "
             "points at a clone of the parent commit (default: change)",
    )
    parser.add_argument("--one", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0

    path = REPO_ROOT / "BENCH_scale.json"
    payload = json.loads(path.read_text()) if path.exists() else {"rows": {}}
    rows_by_label: dict[str, list[dict]] = payload["rows"]
    scales = SMOKE_SCALES if args.smoke else SCALES
    rows_by_label[args.label] = [measure_in_own_process(s) for s in scales]
    if args.smoke:  # gate the fresh rows against the committed parent's
        rows_by_label = {
            label: [row for row in rows if row["scale"] in scales]
            for label, rows in rows_by_label.items()
        }
    print(table(rows_by_label))

    failures = check(rows_by_label, one_machine=not args.smoke)
    if not args.smoke:
        payload = {
            "database": "1:3, class clustering, index first, transaction off",
            "seconds": f"raw perf_counter; the fastest of {REPEATS} fresh "
                       "processes per scale, every total in totals_s",
            "collections": "[generation 0, 1, 2] inside the call",
            "rows": rows_by_label,
            "failures": failures,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
