"""Export benchmark results for external analysis.

The paper converted its O2 results to Gnuplot input with YAT [8]; we go
straight to CSV and gnuplot ``.dat`` text from :class:`StatRow` lists.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Iterable, Sequence

from repro.stats.store import StatRow


def _csv(columns: Sequence[str], value_rows: Iterable[Sequence]) -> str:
    """The one row renderer behind every exporter: a header line, then
    one comma-joined line per row with floats fixed at four decimals."""
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for values in value_rows:
        out.write(
            ",".join(
                f"{v:.4f}" if isinstance(v, float) else str(v) for v in values
            )
            + "\n"
        )
    return out.getvalue()


def to_csv(rows: Iterable[StatRow]) -> str:
    """Render rows as CSV text (header + one line per Stat): every
    ``StatRow`` field but the query's projection type and text."""
    return records_to_csv(StatRow, rows, exclude=("projectiontype", "text"))


_MIX_COLUMNS = (
    "session",
    "profile",
    "committed",
    "aborted",
    "deadlocks",
    "timeouts",
    "conflicts",
    "queries",
    "updates",
    "busy_s",
    "lock_wait_s",
    "lock_waits",
    "mean_latency_s",
    "max_latency_s",
    "throughput_ops_s",
    "client_faults",
    "server_hits",
    "disk_reads",
    "first_row_ms",
    "peak_rows",
    "retries",
    "cancelled",
    "over_budget",
    "queue_wait_ms",
)


def mix_to_csv(report) -> str:
    """Render a :class:`repro.service.MixReport`'s per-session metrics
    as CSV (duck-typed so this module never imports ``repro.service``,
    which imports us)."""
    def flatten(sr) -> tuple:
        m = sr.metrics
        return (
            sr.name,
            sr.profile,
            m.committed,
            m.aborted,
            m.deadlocks,
            m.timeouts,
            m.conflicts,
            m.queries,
            m.updates,
            m.busy_s,
            m.lock_wait_s,
            m.lock_waits,
            m.mean_latency_s,
            m.max_latency_s,
            sr.throughput_ops_s,
            m.meters.client_faults,
            m.meters.server_hits,
            m.meters.disk_reads,
            m.mean_first_row_ms,
            m.peak_rows,
            m.retries,
            m.cancelled,
            m.over_budget,
            m.queue_wait_s * 1_000.0,
        )

    return _csv(_MIX_COLUMNS, map(flatten, report.sessions))


def records_to_csv(
    record_type: type, rows: Iterable, exclude: Sequence[str] = ()
) -> str:
    """Render dataclass rows as CSV.  The row class is its own column
    contract: one column per field of ``record_type``, in declaration
    order, minus ``exclude`` — so this module knows no benchmark
    script's row shape."""
    columns = [
        f.name for f in dataclasses.fields(record_type)
        if f.name not in exclude
    ]
    return _csv(
        columns, ([getattr(row, col) for col in columns] for row in rows)
    )


def to_gnuplot(
    rows: Sequence[StatRow],
    x: str = "selectivity",
    y: str = "elapsed_s",
    series: str = "algo",
) -> str:
    """Render rows as a gnuplot ``.dat`` file: one indexed block per
    series value, ``x y`` pairs sorted by x."""
    blocks: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        key = str(getattr(row, series))
        blocks.setdefault(key, []).append(
            (float(getattr(row, x)), float(getattr(row, y)))
        )
    out = io.StringIO()
    for name in sorted(blocks):
        out.write(f"# series: {name}\n")
        for px, py in sorted(blocks[name]):
            out.write(f"{px:g} {py:g}\n")
        out.write("\n\n")
    return out.getvalue()
