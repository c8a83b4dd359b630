"""Unit tests for the paper's numbers and the claims scored against them."""

from __future__ import annotations

import random

import pytest

from repro.bench.figures import ORGANIZATIONS, RELATIONSHIPS, cell_times, rank_table
from repro.bench.paper_data import (
    CLAIMS, MISS, NEAR, PAPER_FIG11, PAPER_FIG12, PAPER_FIG14, PAPER_FIG15_WINNERS,
    PAPER_FIGURES, PASS, TIE, score_against_paper, score_claims, winner_outcome,
)
from repro.bench.runner import JoinMeasurement
from repro.bench.workloads import SELECTIVITY_GRID
from repro.simtime import MeterSnapshot


def fake_measurements(cells: dict) -> list[JoinMeasurement]:
    out = []
    for (sp, sv), algos in cells.items():
        for algo, seconds in algos.items():
            out.append(
                JoinMeasurement(
                    algo=algo,
                    clustering="class",
                    sel_patients=sp,
                    sel_providers=sv,
                    elapsed_s=seconds,
                    rows=1,
                    meters=MeterSnapshot(),
                    breakdown={},
                )
            )
    return out


class TestPaperData:
    def test_tables_cover_the_grid(self):
        for name, figure in PAPER_FIGURES.items():
            assert set(figure) == set(SELECTIVITY_GRID), name
            for cell in figure.values():
                assert set(cell) == {"NL", "NOJOIN", "PHJ", "CHJ"}

    def test_figure12_90_90_order_is_the_papers(self):
        cell = PAPER_FIG12[(90, 90)]
        assert sorted(cell, key=cell.get) == ["NOJOIN", "NL", "PHJ", "CHJ"]

    def test_figure14_navigation_wins(self):
        for cell, algos in PAPER_FIG14.items():
            assert min(algos, key=algos.get) in ("NL", "NOJOIN"), cell

    def test_figure15_covers_24_cells(self):
        count = sum(
            len(by_org)
            for cells in PAPER_FIG15_WINNERS.values()
            for by_org in cells.values()
        )
        assert count == 24


class TestScoring:
    def test_perfect_reproduction_scores_perfectly(self):
        """Feeding the paper's own numbers (scaled by any constant) must
        score 4/4 winners, rho 1.0, zero ratio error."""
        scaled = {
            cell: {a: t / 100 for a, t in algos.items()}
            for cell, algos in PAPER_FIG11.items()
        }
        score = score_against_paper("fig11", fake_measurements(scaled))
        assert score.winners_matched == 4
        assert score.mean_spearman == pytest.approx(1.0)
        assert score.mean_log_ratio_error == pytest.approx(0.0, abs=1e-9)

    def test_inverted_ranking_scores_negatively(self):
        inverted = {
            cell: {a: 1.0 / t for a, t in algos.items()}
            for cell, algos in PAPER_FIG11.items()
        }
        score = score_against_paper("fig11", fake_measurements(inverted))
        assert score.winners_matched == 0
        assert score.mean_spearman < 0

    def test_missing_algorithm_rejected(self):
        partial = {
            cell: {a: t for a, t in algos.items() if a != "NL"}
            for cell, algos in PAPER_FIG11.items()
        }
        with pytest.raises(ValueError):
            score_against_paper("fig11", fake_measurements(partial))


class TestClaimScoring:
    @pytest.mark.parametrize("phj, outcome, margin", [
        (0.99, PASS, 0.01 / 0.99),   # the paper's winner wins by 1 %
        (0.995, TIE, 0.005 / 0.995),
        (1.005, TIE, -0.005),        # ... trails ours by under 1 %
        (1.01, NEAR, -0.01),
        (1.05, NEAR, -0.05),         # ... by 5 %: the agreement rule
        (1.051, MISS, -0.051),
    ])
    def test_winner_outcome_boundaries(self, phj, outcome, margin):
        cell = {"NL": 3.0, "NOJOIN": 1.2, "PHJ": phj, "CHJ": 1.0}
        assert winner_outcome(cell, "PHJ") == (outcome, pytest.approx(margin))

    def test_a_reversed_figure12_cell_fails_its_order_row_and_its_floor(self):
        def score(grid):
            ms = fake_measurements(grid)
            claims = tuple(c for c in CLAIMS if c.figure == "fig12")
            return score_claims(claims, {"fig12": (rank_table(ms, "t"), ms)}, 1.0)

        assert score(PAPER_FIG12)[1] == []
        cell = PAPER_FIG12[(90, 90)]
        reversed_cell = dict(zip(sorted(cell, key=cell.get), sorted(cell.values())[::-1]))
        table, misses = score({**PAPER_FIG12, (90, 90): reversed_cell})
        assert {row[1]: row[4] for row in table.rows}["90/90 winner"] == MISS
        assert [m.split(": ours")[0] for m in misses] == [
            "fig12 90/90: order NOJOIN < NL < PHJ < CHJ",
            "fig12 mean Spearman rho >= 0.7",
        ]

    def test_the_figure15_floor_counts_what_the_five_percent_rule_counted(self):
        floor = next(c for c in CLAIMS if c.statement.startswith("winners agree"))
        rng = random.Random(15)
        seen = set()
        for __ in range(40):
            measured = {rel: {org: fake_measurements({cell: {
                a: rng.choice((1.0, 1.009, 1.01, 1.05, 1.051, 1.3)) for a in PAPER_FIG11[cell]
            } for cell in PAPER_FIG11}) for org in ORGANIZATIONS} for rel in RELATIONSHIPS}
            agreed = 0   # the rule the floor replaced, as it was written
            for rel, cells in PAPER_FIG15_WINNERS.items():
                for cell, by_org in cells.items():
                    for org, paper_winner in by_org.items():
                        ours = cell_times(measured[rel][org], *cell)
                        our_winner = min(ours, key=ours.get)
                        tied_with_paper = (
                            paper_winner in ours
                            and ours[paper_winner] <= 1.05 * ours[our_winner]
                        )
                        agreed += our_winner == paper_winner or tied_with_paper
            ours, holds = floor.measure(None, measured)
            assert ours.startswith(f"{agreed}/24 ") and holds == (agreed >= 19)
            seen.add(holds)
        assert seen == {True, False}
