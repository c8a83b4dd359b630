"""Automated paper-agreement scoring for Figures 11-15.

Normalizes each cell of each figure (winner = 1.0) on both sides and
scores: winner agreement, Spearman rank correlation of the algorithm
ordering, and the mean log10 error of the time ratios.  This is
EXPERIMENTS.md's comparison, executed and asserted.
"""

from __future__ import annotations

from repro.bench.paper_data import PAPER_FIG15_WINNERS, score_against_paper
from repro.bench.figures import FIGURES, cell_times
from repro.bench.report import Table

#: Per-figure thresholds; fig13 is dominated by near-tie cells in the
#: paper itself (ratios 1.12-1.20), so its rank correlation is noisier.
_MIN_WINNERS = {"fig11": 3, "fig12": 3, "fig13": 2, "fig14": 3}
_MIN_SPEARMAN = {"fig11": 0.6, "fig12": 0.7, "fig13": 0.3, "fig14": 0.7}


def test_figures_11_to_14_shape_agreement(join_measurements, save_table):
    total_winners = 0
    for fig in _MIN_WINNERS:
        table, score = score_against_paper(
            fig, join_measurements(*FIGURES[fig].database)
        )
        save_table(f"paper_agreement_{fig}", table)
        assert score.winners_matched >= _MIN_WINNERS[fig], fig
        assert score.mean_spearman >= _MIN_SPEARMAN[fig], fig
        assert score.mean_log_ratio_error < 0.35, fig
        total_winners += score.winners_matched
    assert total_winners >= 12  # out of 16 cells


def test_figure15_winner_agreement(join_measurements, save_table):
    agreements = []
    for rel, cells in PAPER_FIG15_WINNERS.items():
        for cell, by_org in cells.items():
            for org, paper_winner in by_org.items():
                ms = join_measurements(rel, org)
                ours = cell_times(ms, *cell)
                our_winner = min(ours, key=ours.get)
                # Treat within-5% finishes as ties (the paper's own
                # PHJ/CHJ cells are photo-finishes).
                tied_with_paper = (
                    paper_winner in ours
                    and ours[paper_winner] <= 1.05 * ours[our_winner]
                )
                agreements.append(
                    (rel, cell, org, paper_winner, our_winner,
                     our_winner == paper_winner or tied_with_paper)
                )

    table = Table(
        "Figure 15 winner agreement (ties within 5% count as agreement)",
        ["Rel", "Cell", "Organization", "Paper", "Ours", "Agree"],
    )
    for rel, cell, org, paper_w, our_w, ok in agreements:
        table.add(rel, f"{cell[0]}/{cell[1]}", org, paper_w, our_w,
                  "yes" if ok else "NO")
    save_table("paper_agreement_fig15", table)

    agreed = sum(1 for *__, ok in agreements if ok)
    assert agreed >= 19, f"only {agreed}/24 Figure 15 winners agree"
