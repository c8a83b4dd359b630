"""Every table of the paper, regenerated and held to its shape.

One test per entry of :data:`repro.bench.figures.FIGURES`: the session's
driver builds the figure (one database alive at a time), the table is
written under ``results/`` and the figure's ``check_<name>`` asserts the
shape the paper reports.  ``measured`` is what the driver ranked the
table from: the sixteen grid runs for Figures 11-14, the six grids by
relationship and organization for Figure 15, nothing for the rest.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURES, cell_times


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name, figure_driver, save_table):
    table, measured = figure_driver.build(name)
    save_table(FIGURES[name].stem, table)
    globals()[f"check_{name}"](table, measured)


def check_fig04(table, measured):
    """Section 4.1 — hash tables: Rids or Handles?  A table whose
    payloads are full Handles pins a 60+-byte structure per selected
    object; a table of Rids stays small and re-fetches through the (now
    warm) cache on use."""
    handles_row, rids_row = table.rows
    assert handles_row[2] > 10 * rids_row[2]  # table MB


def check_fig06(table, measured):
    """Figure 6 (paper): the no-index page count is selectivity-
    independent; the unclustered index reads more pages than the full
    scan beyond a threshold between 1% and 5%."""
    rows = table.rows
    # No-index page count is flat across selectivities.
    assert len({row[3] for row in rows}) == 1
    # The unclustered index beats the scan at 0.1% selectivity...
    assert rows[0][2] < rows[0][4]
    # ...and reads more pages than the scan at high selectivity.
    assert rows[-1][1] > rows[-1][3]


def check_fig07(table, measured):
    """Figure 7: sorting the rids returned by the index scan before
    fetching keeps the index competitive at every selectivity ("It did
    and exceeded our expectations by far")."""
    rows = table.rows
    # The sorted index scan wins clearly at low/mid selectivity.
    for row in rows[:3]:
        assert row[1] < row[2], f"sorted index lost at {row[0]}%"
    # At 90% it stays within a whisker of the scan (the paper measured a
    # modest win; our model puts the crossover around there).
    assert rows[-1][1] < rows[-1][2] * 1.10


def check_fig09(table, measured):
    """Figure 9 is an analytic table in the paper; ours is *measured*
    from the simulation clock's buckets, which is strictly stronger: the
    decomposition must sum to the totals of Figure 7."""
    *components, total = table.rows
    for col in (1, 2):
        assert sum(r[col] for r in components) == pytest.approx(
            total[col], rel=0.01
        )
    handles = next(r for r in table.rows if "Handle" in r[0])
    sorts = next(r for r in table.rows if "Sort" in r[0])
    # Standard scan: handles for the whole collection, no sort.
    assert handles[1] > handles[2]
    assert sorts[1] == 0.0
    assert sorts[2] > 0.0


#: The paper's Figure 10 values, MB, in row order.
PAPER_SIZES_MB = (0.0128, 0.1152, 6.4, 57.6, 1.72, 14.52, 62.4, 81.6)


def check_fig10(table, measured):
    """Figure 10 is purely analytic: the size model must reproduce the
    paper's eight MB figures at full database scale."""
    ours = [row[5] for row in table.rows]
    for mine, paper in zip(ours, PAPER_SIZES_MB):
        # The paper rounds 64-byte entries to decimal MB; allow 5%.
        assert mine == pytest.approx(paper, rel=0.05)


def check_fig11(table, ms):
    """Figure 11 (paper): hash joins best, NOJOIN comparable (within
    ~1.1-1.5x), NL dreadful except when very few providers are
    selected."""
    # Paper's shape assertions per cell.
    t = cell_times(ms, 10, 10)
    assert t["PHJ"] < t["NL"] / 4          # NL dreadful (paper: 15.8x)
    assert t["NOJOIN"] < 2.0 * t["PHJ"]    # NOJOIN comparable (paper: 1.40x)

    t = cell_times(ms, 10, 90)
    assert t["NL"] > 10 * min(t.values())  # paper: 80x

    t = cell_times(ms, 90, 90)
    assert t["NL"] > 3 * t["PHJ"]          # paper: 7x
    assert t["NOJOIN"] < 1.5 * t["PHJ"]    # paper: 1.2x


def check_handles(table, measured):
    """Section 4.4 — the proposed handle improvements, measured on the
    Figure 7 workloads: the paper argues O2's associative-access
    performance "could be greatly improved without hurting those of main
    memory navigation"; this is that claim, quantified."""
    by_mode = {row[0]: (row[1], row[2]) for row in table.rows}
    full_scan, full_sorted = by_mode["full"]
    bulk_scan, __ = by_mode["bulk"]
    inline_scan, inline_sorted = by_mode["inline_tuples"]

    # Every cure improves the cold scan.
    assert bulk_scan < full_scan
    assert inline_scan < full_scan
    assert by_mode["compact_literals"][0] < full_scan
    # And the sorted index scan improves too.
    assert inline_sorted < full_sorted


def check_fig12(table, ms):
    """Figure 12 (paper): NOJOIN becomes dreadful (one random parent
    access per child over a huge parent file), the hash joins degrade
    when their tables outgrow memory — at 90/90 NOJOIN wins and the
    ordering is NOJOIN < NL < PHJ < CHJ."""
    t = cell_times(ms, 10, 10)
    assert t["NOJOIN"] > 5 * min(t.values())   # paper: 9.7x
    assert t["NL"] > 5 * min(t.values())       # paper: 12.5x

    t = cell_times(ms, 10, 90)
    assert min(t, key=t.get) == "CHJ"          # paper: CHJ wins
    assert t["PHJ"] > 2 * t["CHJ"]             # paper: 4.4x (PHJ swaps)

    t = cell_times(ms, 90, 10)
    assert min(t, key=t.get) == "PHJ"
    assert t["NL"] < t["NOJOIN"]               # paper: NL 1.77x, NOJOIN 11.7x

    t = cell_times(ms, 90, 90)
    order = sorted(t, key=t.get)
    assert order == ["NOJOIN", "NL", "PHJ", "CHJ"], order  # paper's exact order


def check_fig13(table, ms):
    """Figure 13 (paper): navigation (NL) is by far the most
    advantageous; the index-driven algorithms pay near-full-file reads
    because mrn order no longer matches the physical layout."""
    t = cell_times(ms, 10, 10)
    assert min(t, key=t.get) == "NL"           # paper: NL, 10x margin
    assert t["NOJOIN"] > 3 * t["NL"]

    t = cell_times(ms, 90, 10)
    assert min(t, key=t.get) == "NL"           # paper: NL, 7.5-8.4x margin
    assert t["PHJ"] > 3 * t["NL"]

    t = cell_times(ms, 90, 90)
    assert min(t, key=t.get) == "NL"           # paper: NL, everyone ~1.1-1.2x
    assert max(t.values()) < 1.6 * t["NL"]

    # (10, 90) is a near-tie in the paper (NL 1.0, PHJ 1.12); we require
    # the whole cell within 1.6x of the winner.
    t = cell_times(ms, 10, 90)
    assert max(t.values()) < 1.6 * min(t.values())


def check_fig14(table, ms):
    """Figure 14 (paper): navigation wins everywhere (NL in three cells,
    NOJOIN at 10/90); CHJ/PHJ pay memory-driven penalties at high
    selectivities."""
    t = cell_times(ms, 10, 10)
    assert min(t, key=t.get) == "NL"          # paper: NL, ~9x margin
    assert t["NOJOIN"] > 3 * t["NL"]

    t = cell_times(ms, 10, 90)
    assert min(t, key=t.get) == "NOJOIN"      # paper: NOJOIN wins this cell
    assert t["PHJ"] > 2 * t["NOJOIN"]         # paper: 5.1x

    t = cell_times(ms, 90, 10)
    order = sorted(t, key=t.get)
    assert order[0] == "NL"                   # paper: NL, PHJ, NOJOIN, CHJ
    assert order[-1] == "CHJ"

    t = cell_times(ms, 90, 90)
    assert min(t, key=t.get) == "NL"
    assert t["NOJOIN"] < 1.5 * t["NL"]        # paper: 1.22x
    assert t["PHJ"] > 2 * t["NL"]             # paper: 3.78x


def check_fig15(table, results):
    """Figure 15 (paper): the random organization multiplies times by
    ~1.5-2x over class clustering but favours the same algorithm
    families; the composition column is navigation all the way down."""
    # Composition winners are navigation (paper: NL in 7 cells, NOJOIN
    # in one).  The 1:1000 (10, 90) cell is a near-tie in the paper
    # (NL 1.0 vs PHJ 1.12) and may flip; allow at most one deviation.
    comp_winners = [row[7] for row in table.rows]
    non_navigation = [w for w in comp_winners if w not in ("NL", "NOJOIN")]
    assert len(non_navigation) <= 1, comp_winners

    # Class winners are hash joins except at 90/90 1:3 where memory
    # pressure hands it to navigation (paper: NOJOIN).
    class_winners = [row[5] for row in table.rows]
    assert set(class_winners[:3]) <= {"PHJ", "CHJ"}

    # Random org: same winner families as class clustering, slower.
    for rel in ("1:1000", "1:3"):
        rnd = results[rel]["random"]
        cls = results[rel]["class"]
        slower = 0
        for sel in ((10, 10), (10, 90), (90, 10), (90, 90)):
            best_rnd = min(cell_times(rnd, *sel).values())
            best_cls = min(cell_times(cls, *sel).values())
            if best_rnd > best_cls:
                slower += 1
        assert slower >= 3, f"random org should be slower for {rel}"
