"""The paper's published numbers, as data.

Figures 11-15 transcribed from the paper (times in seconds on its Sparc
20; the ``Time ratio`` columns are derivable).  Used to *score* the
reproduction automatically: per-cell rank agreement, winner agreement,
and ratio error between the paper's measurements and ours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import stats as scipy_stats

from repro.bench.report import Table
from repro.bench.runner import JoinMeasurement
from repro.bench.workloads import SELECTIVITY_GRID

Cell = tuple[int, int]  # (selectivity on patients, on providers)

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


@dataclass(frozen=True)
class ShapeScore:
    """How closely the reproduction matches one figure's shape."""

    figure: str
    winners_matched: int          # cells whose fastest algorithm agrees
    cells: int
    mean_spearman: float          # rank correlation of algorithm order
    mean_log_ratio_error: float   # |log10(our ratio / paper ratio)| avg


def score_against_paper(
    figure: str, measurements: list[JoinMeasurement]
) -> tuple[Table, ShapeScore]:
    """Compare grid measurements with the paper's table for ``figure``.

    Both sides are normalized per cell (winner = 1.0), so the comparison
    is scale-free, as DESIGN.md §5 requires.
    """
    paper = PAPER_FIGURES[figure]
    table = Table(
        f"{figure} vs the paper — normalized time ratios per cell",
        ["Cell", "Algorithm", "Paper ratio", "Ours", "Paper rank", "Our rank"],
    )
    winners = 0
    spearmans: list[float] = []
    log_errors: list[float] = []
    for cell in SELECTIVITY_GRID:
        paper_cell = paper[cell]
        ours_cell = {
            m.algo: m.elapsed_s
            for m in measurements
            if (m.sel_patients, m.sel_providers) == cell
            and m.algo in paper_cell
        }
        if set(ours_cell) != set(paper_cell):
            raise ValueError(
                f"measurements for cell {cell} do not cover {set(paper_cell)}"
            )
        algos = sorted(paper_cell)
        paper_best = min(paper_cell.values())
        our_best = min(ours_cell.values())
        paper_ratios = [paper_cell[a] / paper_best for a in algos]
        our_ratios = [ours_cell[a] / our_best for a in algos]
        rho = scipy_stats.spearmanr(paper_ratios, our_ratios).statistic
        spearmans.append(float(rho))
        paper_rank = _ranks(paper_cell)
        our_rank = _ranks(ours_cell)
        if min(paper_cell, key=paper_cell.get) == min(ours_cell, key=ours_cell.get):
            winners += 1
        for a, pr, orr in zip(algos, paper_ratios, our_ratios):
            log_errors.append(abs(math.log10(orr / pr)))
            table.add(
                f"{cell[0]}/{cell[1]}", a, pr, orr, paper_rank[a], our_rank[a]
            )
    score = ShapeScore(
        figure=figure,
        winners_matched=winners,
        cells=len(SELECTIVITY_GRID),
        mean_spearman=sum(spearmans) / len(spearmans),
        mean_log_ratio_error=sum(log_errors) / len(log_errors),
    )
    table.note(
        f"winners matched {score.winners_matched}/{score.cells}; "
        f"mean Spearman rho {score.mean_spearman:.2f}; "
        f"mean |log10 ratio error| {score.mean_log_ratio_error:.2f}"
    )
    return table, score


def _ranks(cell: dict[str, float]) -> dict[str, int]:
    ordered = sorted(cell, key=cell.get)
    return {algo: i + 1 for i, algo in enumerate(ordered)}
