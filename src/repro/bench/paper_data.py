"""The paper's published numbers, and every claim we hold it to.

Figures 10-15 transcribed from the paper (times in seconds on its Sparc
20; the ``Time ratio`` columns are derivable), and :data:`CLAIMS`, which
:func:`score_claims` turns into ``results/paper_claims.txt``.  A *check*
row reads ``pass`` or ``miss`` and is gated.  A *winner* row (one per
Section 5 cell) reads how the paper's winner fares in our cell; it is
reported, and the floors that count winner rows are check rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from scipy import stats as scipy_stats

from repro.bench.figures import FIGURES, RELATIONSHIPS, cell_times
from repro.bench.runner import JoinMeasurement
from repro.bench.workloads import SELECTIVITY_GRID
from repro.stats.report import Table, _fmt

Cell = tuple[int, int]  # (selectivity on patients, on providers)

#: Figure 10 — hash-table sizes in MB, in the rows' order.
PAPER_SIZES_MB = (0.0128, 0.1152, 6.4, 57.6, 1.72, 14.52, 62.4, 81.6)

#: Figure 11 — one file per class, 2x10^3 providers / 2x10^6 patients.
PAPER_FIG11: dict[Cell, dict[str, float]] = {
    (10, 10): {"PHJ": 89.83, "CHJ": 101.05, "NOJOIN": 125.90, "NL": 1418.56},
    (10, 90): {"CHJ": 154.09, "PHJ": 154.57, "NOJOIN": 191.51, "NL": 12331.96},
    (90, 10): {"PHJ": 925.07, "NOJOIN": 1266.31, "CHJ": 1320.69, "NL": 1509.19},
    (90, 90): {"PHJ": 1913.80, "CHJ": 1956.35, "NOJOIN": 2315.62, "NL": 13423.38},
}

#: Figure 12 — one file per class, 10^6 providers / 3x10^6 patients.
PAPER_FIG12: dict[Cell, dict[str, float]] = {
    (10, 10): {"PHJ": 365.72, "CHJ": 402.38, "NOJOIN": 3550.62, "NL": 4566.06},
    (10, 90): {"CHJ": 1286.18, "NOJOIN": 3777.10, "PHJ": 5723.28, "NL": 41119.29},
    (90, 10): {"PHJ": 2676.37, "NL": 4738.09, "CHJ": 9457.91, "NOJOIN": 31318.05},
    (90, 90): {"NOJOIN": 34708.13, "NL": 43850.03, "PHJ": 44188.33, "CHJ": 58963.71},
}

#: Figure 13 — composition cluster, 1:1000.
PAPER_FIG13: dict[Cell, dict[str, float]] = {
    (10, 10): {"NL": 92.78, "NOJOIN": 961.88, "CHJ": 971.84, "PHJ": 980.42},
    (10, 90): {"NL": 923.84, "PHJ": 1042.16, "CHJ": 1078.47, "NOJOIN": 1090.98},
    (90, 10): {"NL": 155.17, "PHJ": 1164.97, "CHJ": 1221.29, "NOJOIN": 1303.90},
    (90, 90): {"NL": 1665.51, "PHJ": 1898.97, "CHJ": 1993.88, "NOJOIN": 2006.76},
}

#: Figure 14 — composition cluster, 1:3.
PAPER_FIG14: dict[Cell, dict[str, float]] = {
    (10, 10): {"NL": 165.97, "NOJOIN": 1465.20, "PHJ": 1566.68, "CHJ": 1634.72},
    (10, 90): {"NOJOIN": 1572.40, "NL": 1749.50, "CHJ": 3181.43, "PHJ": 8090.45},
    (90, 10): {"NL": 280.53, "PHJ": 1932.78, "NOJOIN": 1988.82, "CHJ": 4993.11},
    (90, 90): {"NL": 2709.16, "NOJOIN": 3332.08, "PHJ": 10251.0, "CHJ": 10761.14},
}

#: Figure 15 — winning algorithm per (relationship, cell, organization).
PAPER_FIG15_WINNERS: dict[str, dict[Cell, dict[str, str]]] = {
    "1:1000": {
        (10, 10): {"random": "PHJ", "class": "PHJ", "composition": "NL"},
        (10, 90): {"random": "CHJ", "class": "CHJ", "composition": "NL"},
        (90, 10): {"random": "PHJ", "class": "PHJ", "composition": "NL"},
        (90, 90): {"random": "CHJ", "class": "PHJ", "composition": "NL"},
    },
    "1:3": {
        (10, 10): {"random": "PHJ", "class": "PHJ", "composition": "NL"},
        (10, 90): {"random": "CHJ", "class": "CHJ", "composition": "NOJOIN"},
        (90, 10): {"random": "PHJ", "class": "PHJ", "composition": "NL"},
        (90, 90): {"random": "NL", "class": "NOJOIN", "composition": "NL"},
    },
}

PAPER_FIGURES: dict[str, dict[Cell, dict[str, float]]] = {
    "fig11": PAPER_FIG11,
    "fig12": PAPER_FIG12,
    "fig13": PAPER_FIG13,
    "fig14": PAPER_FIG14,
}


PASS, TIE, NEAR, MISS = "pass", "tie", "near", "miss"


@dataclass(frozen=True)
class Claim:
    """One statement of the paper, and how to read ours off a figure."""

    #: The :data:`~repro.bench.figures.FIGURES` entry it is measured on.
    figure: str
    #: What the paper says, with the bound ours is held to.
    statement: str
    #: The paper's value as printed (Section 5 ratios from its times).
    paper: str
    #: ``(table, measured)`` as ``FigureDriver.build`` returns them to
    #: ``(ours, holds)`` for a gated row, ``(ours, outcome)`` otherwise.
    measure: Callable[[Table, object], tuple[str, bool | str]]
    #: A gated row fails the bench unless the claim holds.
    gated: bool


def score_claims(claims: tuple[Claim, ...], built: dict, scale: float) -> tuple[Table, list[str]]:
    """One row per claim over ``built`` (figure name -> ``(table,
    measured)``): figure, claim, paper, ours, outcome; and every gated
    row that does not read ``pass``."""
    table = Table(f"The paper's claims, scored at scale {scale:g}",
                  ["Figure", "Claim", "Paper", "Ours", "Outcome"])
    misses = []
    for claim in claims:
        ours, result = claim.measure(*built[claim.figure])
        outcome = (PASS if result else MISS) if claim.gated else result
        table.add(claim.figure, claim.statement, claim.paper, ours, outcome)
        if claim.gated and outcome != PASS:
            misses.append(f"{claim.figure} {claim.statement}: ours {ours}, paper {claim.paper}")
    for gated, kind in ((True, "check rows (gated)"), (False, "winner rows")):
        n = Counter(row[4] for row, claim in zip(table.rows, claims) if claim.gated == gated)
        table.note(f"{kind}: " + ", ".join(f"{n[o]} {o}" for o in (PASS, TIE, NEAR, MISS) if n[o]))
    return table, misses


@dataclass(frozen=True)
class ShapeScore:
    """How closely one of Figures 11-14 matches the paper's shape."""

    winners_matched: int          # cells whose fastest algorithm agrees
    mean_spearman: float          # rank correlation of algorithm order
    mean_log_ratio_error: float   # |log10(our ratio / paper ratio)| avg


def score_against_paper(figure: str, measurements: list[JoinMeasurement]) -> ShapeScore:
    """Compare grid measurements with the paper's table for ``figure``.

    Both sides are normalized per cell (winner = 1.0), so the comparison
    is scale-free, as DESIGN.md §5 requires.
    """
    winners = 0
    spearmans: list[float] = []
    log_errors: list[float] = []
    for cell in SELECTIVITY_GRID:
        paper_cell = PAPER_FIGURES[figure][cell]
        ours_cell = {a: t for a, t in cell_times(measurements, *cell).items() if a in paper_cell}
        if set(ours_cell) != set(paper_cell):
            raise ValueError(f"measurements for cell {cell} do not cover {set(paper_cell)}")
        algos = sorted(paper_cell)
        paper_best = min(paper_cell.values())
        our_best = min(ours_cell.values())
        paper_ratios = [paper_cell[a] / paper_best for a in algos]
        our_ratios = [ours_cell[a] / our_best for a in algos]
        spearmans.append(float(scipy_stats.spearmanr(paper_ratios, our_ratios).statistic))
        winners += min(paper_cell, key=paper_cell.get) == min(ours_cell, key=ours_cell.get)
        log_errors += [abs(math.log10(o / p)) for p, o in zip(paper_ratios, our_ratios)]
    return ShapeScore(winners, sum(spearmans) / len(spearmans), sum(log_errors) / len(log_errors))


def winner_outcome(times: dict[str, float], paper_winner: str) -> tuple[str, float]:
    """How the paper's winner fares in one cell of ours, and its margin.

    Where it wins here too, the margin is its lead over our runner-up:
    ``pass`` from 1 % up, ``tie`` below.  Where it does not, the margin
    is minus how far it trails our winner: ``tie`` within 1 %, ``near``
    within 5 %, ``miss`` beyond.
    """
    our_winner = min(times, key=times.get)
    theirs, ours = times[paper_winner], times[our_winner]
    if our_winner == paper_winner:
        runner_up = min(t for a, t in times.items() if a != paper_winner)
        return (PASS if runner_up >= 1.01 * theirs else TIE), runner_up / theirs - 1
    margin = 1 - theirs / ours
    if theirs < 1.01 * ours:
        return TIE, margin
    return (NEAR if theirs <= 1.05 * ours else MISS), margin


# ------------------------------------------------------------- the claims

def _ranking(times: dict[str, float]) -> str:
    """The algorithms fastest first, each with its time over the fastest."""
    best = min(times.values())
    return ", ".join(f"{a} {times[a] / best:.2f}" for a in sorted(times, key=times.get))


def _winner(figure: str, statement: str, paper: str, paper_winner: str, times) -> Claim:
    """A winner row over the cell ``times(measured)`` picks out."""
    def measure(table, measured):
        t = times(measured)
        outcome, margin = winner_outcome(t, paper_winner)
        lead = "leads" if margin >= 0 else "trails"
        return f"{_ranking(t)}; {paper_winner} {lead} by {abs(margin):.1%}", outcome
    return Claim(figure, statement, paper, measure, False)


def _section5(figure: str, min_winners: int, min_rho: float) -> list[Claim]:
    """One of Figures 11-14: its shape cell by cell, a winner row per
    cell, and its floors on winners matched, Spearman rho and log error."""
    cells = PAPER_FIGURES[figure]

    def on_cell(cell, statement, holds):
        def measure(table, measured):
            return _ranking(t := cell_times(measured, *cell)), holds(t)
        statement = f"{cell[0]}/{cell[1]}: {statement}"
        return Claim(figure, statement, _ranking(cells[cell]), measure, True)

    def floor(statement, paper, read):
        def measure(table, measured):
            return read(score_against_paper(figure, measured))
        return Claim(figure, statement, paper, measure, True)

    return [
        *(on_cell(*check) for check in _CELL_CHECKS[figure]),
        *(_winner(figure, f"{cell[0]}/{cell[1]} winner", _ranking(cells[cell]),
                  min(cells[cell], key=cells[cell].get),
                  lambda measured, cell=cell: cell_times(measured, *cell))
          for cell in SELECTIVITY_GRID),
        floor(f"winners matched >= {min_winners} of 4", "4/4",
              lambda s: (f"{s.winners_matched}/4", s.winners_matched >= min_winners)),
        floor(f"mean Spearman rho >= {min_rho}", "1.00",
              lambda s: (f"{s.mean_spearman:.2f}", s.mean_spearman >= min_rho)),
        floor("mean |log10 ratio error| < 0.35", "0",
              lambda s: (f"{s.mean_log_ratio_error:.2f}", s.mean_log_ratio_error < 0.35)),
    ]


def _vs(a: float, b: float) -> str:
    return f"{_fmt(a)} vs {_fmt(b)}"


def _approx(value: float, expected: float, rel: float) -> bool:
    """``value == pytest.approx(expected, rel=rel)``."""
    return abs(value - expected) <= max(rel * abs(expected), 1e-12)


def _row(index: int, read):
    """``read`` over one row of the figure's table."""
    return lambda table, __: read(table.rows[index])


def _fig09_sums(table: Table, __) -> tuple[str, bool]:
    *components, total = table.rows
    sums = {col: sum(r[col] for r in components) for col in (1, 2)}
    return (
        "; ".join(_vs(s, total[col]) for col, s in sums.items()),
        all(_approx(s, total[col], 0.01) for col, s in sums.items()),
    )


def _handle_cure(mode: str, col: int) -> Claim:
    """Section 4.4: one cure against full handles, in one column."""
    def measure(table, __):
        by_mode = {row[0]: row[col] for row in table.rows}
        return _vs(by_mode[mode], by_mode["full"]), by_mode[mode] < by_mode["full"]
    scan = ("standard scan", "sorted index scan")[col - 1]
    return Claim("handles", f"{mode} < full, {scan}", "could be greatly improved", measure, True)


def _fig15_composition(table: Table, __) -> tuple[str, bool]:
    winners = [row[7] for row in table.rows]
    other = [w for w in winners if w not in ("NL", "NOJOIN")]
    return f"{len(winners) - len(other)}/8; others: {', '.join(other) or 'none'}", len(other) <= 1


def _fig15_random_slower(table: Table, __) -> tuple[str, bool]:
    """Cells whose best random time is above the best class time."""
    slower = {rel: sum(r[4] > r[6] for r in table.rows if r[0] == rel) for rel in RELATIONSHIPS}
    return ", ".join(f"{rel} {n}/4" for rel, n in slower.items()), min(slower.values()) >= 3


def _winners_11_to_14(table: Table, measured) -> tuple[str, bool]:
    matched = sum(
        score_against_paper(fig, measured[rel][org]).winners_matched
        for fig in PAPER_FIGURES for rel, org in [FIGURES[fig].database]
    )
    return f"{matched}/16", matched >= 12


def _fig15_agreement(table: Table, measured) -> tuple[str, bool]:
    """A winner within 5 % of ours agrees: pass, tie and near count."""
    n = Counter(claim.measure(table, measured)[1] for claim in _FIG15_WINNERS)
    agreed = n[PASS] + n[TIE] + n[NEAR]
    return f"{agreed}/24 ({n[PASS]} pass, {n[TIE]} tie, {n[NEAR]} near)", agreed >= 19


#: The shape each of Figures 11-14 asserts, cell by cell: (cell,
#: statement, test over our times there).
_CELL_CHECKS = {
    "fig11": (
        ((10, 10), "NL dreadful: PHJ < NL / 4", lambda t: t["PHJ"] < t["NL"] / 4),
        ((10, 10), "NOJOIN comparable: < 2.0 × PHJ", lambda t: t["NOJOIN"] < 2.0 * t["PHJ"]),
        ((10, 90), "NL > 10 × the winner", lambda t: t["NL"] > 10 * min(t.values())),
        ((90, 90), "NL > 3 × PHJ", lambda t: t["NL"] > 3 * t["PHJ"]),
        ((90, 90), "NOJOIN < 1.5 × PHJ", lambda t: t["NOJOIN"] < 1.5 * t["PHJ"]),
    ),
    "fig12": (
        ((10, 10), "NOJOIN > 5 × the winner", lambda t: t["NOJOIN"] > 5 * min(t.values())),
        ((10, 10), "NL > 5 × the winner", lambda t: t["NL"] > 5 * min(t.values())),
        ((10, 90), "CHJ wins", lambda t: min(t, key=t.get) == "CHJ"),
        ((10, 90), "PHJ swaps: PHJ > 2 × CHJ", lambda t: t["PHJ"] > 2 * t["CHJ"]),
        ((90, 10), "PHJ wins", lambda t: min(t, key=t.get) == "PHJ"),
        ((90, 10), "NL < NOJOIN", lambda t: t["NL"] < t["NOJOIN"]),
        ((90, 90), "order NOJOIN < NL < PHJ < CHJ",
         lambda t: sorted(t, key=t.get) == ["NOJOIN", "NL", "PHJ", "CHJ"]),
    ),
    "fig13": (
        ((10, 10), "NL wins", lambda t: min(t, key=t.get) == "NL"),
        ((10, 10), "NOJOIN > 3 × NL", lambda t: t["NOJOIN"] > 3 * t["NL"]),
        ((90, 10), "NL wins", lambda t: min(t, key=t.get) == "NL"),
        ((90, 10), "PHJ > 3 × NL", lambda t: t["PHJ"] > 3 * t["NL"]),
        ((90, 90), "NL wins", lambda t: min(t, key=t.get) == "NL"),
        ((90, 90), "all < 1.6 × NL", lambda t: max(t.values()) < 1.6 * t["NL"]),
        ((10, 90), "all < 1.6 × the winner", lambda t: max(t.values()) < 1.6 * min(t.values())),
    ),
    "fig14": (
        ((10, 10), "NL wins", lambda t: min(t, key=t.get) == "NL"),
        ((10, 10), "NOJOIN > 3 × NL", lambda t: t["NOJOIN"] > 3 * t["NL"]),
        ((10, 90), "NOJOIN wins", lambda t: min(t, key=t.get) == "NOJOIN"),
        ((10, 90), "PHJ > 2 × NOJOIN", lambda t: t["PHJ"] > 2 * t["NOJOIN"]),
        ((90, 10), "NL first", lambda t: sorted(t, key=t.get)[0] == "NL"),
        ((90, 10), "CHJ last", lambda t: sorted(t, key=t.get)[-1] == "CHJ"),
        ((90, 90), "NL wins", lambda t: min(t, key=t.get) == "NL"),
        ((90, 90), "NOJOIN < 1.5 × NL", lambda t: t["NOJOIN"] < 1.5 * t["NL"]),
        ((90, 90), "PHJ > 2 × NL", lambda t: t["PHJ"] > 2 * t["NL"]),
    ),
}

_FIG15_WINNERS = tuple(
    _winner("fig15", f"{rel} {cell[0]}/{cell[1]} {org} winner", winner, winner,
            lambda measured, rel=rel, org=org, cell=cell: cell_times(measured[rel][org], *cell))
    for rel in RELATIONSHIPS for cell in SELECTIVITY_GRID
    for org, winner in PAPER_FIG15_WINNERS[rel][cell].items()
)

#: Every claim of the paper a figure measures, in :data:`FIGURES` order.
#: Figure 13's floors are the lowest: its cells are near-ties in the
#: paper itself (ratios 1.12-1.20), so its rank correlation is noisier.
CLAIMS: tuple[Claim, ...] = (
    Claim("fig04", "a Handles table > 10 × a Rids table (MB)", "Handles 60+ B, Rids 8 B",
          lambda table, __: (f"{table.rows[0][2] / table.rows[1][2]:.1f}×",
                             table.rows[0][2] > 10 * table.rows[1][2]), True),
    Claim("fig06", "no-index pages: one count at every selectivity", "selectivity-independent",
          lambda table, __: (", ".join(str(p) for p in sorted({r[3] for r in table.rows})),
                             len({r[3] for r in table.rows}) == 1), True),
    Claim("fig06", "0.1 %: index time < no-index time", "indexes pay at low selectivity",
          _row(0, lambda r: (_vs(r[2], r[4]), r[2] < r[4])), True),
    Claim("fig06", "90 %: index pages > no-index pages", "more pages past 1-5 %",
          _row(-1, lambda r: (_vs(r[1], r[3]), r[1] > r[3])), True),
    Claim("fig07", "10, 30, 60 %: sorted index < no index (s)",
          "343 vs 1353; 591 vs 1468; 1016 vs 1641",
          lambda table, __: ("; ".join(_vs(r[1], r[2]) for r in table.rows[:3]),
                             all(r[1] < r[2] for r in table.rows[:3])), True),
    Claim("fig07", "90 %: sorted index < 1.10 × no index (s)", "1649 vs 1908",
          _row(-1, lambda r: (_vs(r[1], r[2]), r[1] < r[2] * 1.10)), True),
    Claim("fig09", "components sum to each total within 1 % (s)", "sums to Figure 7",
          _fig09_sums, True),
    Claim("fig09", "handles: standard scan > sorted index scan (s)", "whole collection vs selected",
          _row(1, lambda r: (_vs(r[1], r[2]), r[1] > r[2])), True),
    Claim("fig09", "the standard scan sorts nothing (s)", "0",
          _row(2, lambda r: (_fmt(r[1]), r[1] == 0.0)), True),
    Claim("fig09", "the sorted index scan sorts (s)", "1.8 M rids",
          _row(2, lambda r: (_fmt(r[2]), r[2] > 0.0)), True),
    Claim("fig10", "eight sizes within 5 % (MB)", " / ".join(f"{v:g}" for v in PAPER_SIZES_MB),
          lambda table, __: (" / ".join(f"{r[5]:g}" for r in table.rows), all(
              _approx(r[5], paper, 0.05) for r, paper in zip(table.rows, PAPER_SIZES_MB))),
          True),
    *_section5("fig11", 3, 0.6),
    *(_handle_cure(mode, col) for mode, col in (("bulk", 1), ("inline_tuples", 1),
                                                ("compact_literals", 1), ("inline_tuples", 2))),
    *_section5("fig12", 3, 0.7),
    *_section5("fig13", 2, 0.3),
    *_section5("fig14", 3, 0.7),
    Claim("fig15", "composition: navigation wins in all cells but <= 1",
          "8/8 (NL 7, NOJOIN 1)", _fig15_composition, True),
    Claim("fig15", "class, 1:1000 10/10 to 90/10: a hash join wins", "PHJ, CHJ, PHJ",
          lambda table, __: (", ".join(r[5] for r in table.rows[:3]),
                             {r[5] for r in table.rows[:3]} <= {"PHJ", "CHJ"}), True),
    Claim("fig15", "random slower than class in >= 3 of 4 cells", "× 1.5 to 2",
          _fig15_random_slower, True),
    *_FIG15_WINNERS,
    Claim("fig15", "Figures 11-14: winners matched >= 12 of 16", "16/16",
          _winners_11_to_14, True),
    Claim("fig15", "winners agree (pass, tie or near) >= 19 of 24", "24/24",
          _fig15_agreement, True),
)
