"""Every table of the paper, regenerated, and every claim of it scored:
the session's ``FigureDriver`` builds each ``FIGURES`` entry once and writes its
table, then ``paper_data.CLAIMS`` is scored into ``paper_claims.txt`` and
the bench fails on every gated row that does not read ``pass``.
"""

from __future__ import annotations

from repro.bench.figures import FIGURES
from repro.bench.paper_data import CLAIMS, score_claims
from repro.derby.config import default_scale


def test_figures_and_paper_claims(figure_driver, save_table):
    built = {}
    for name, figure in FIGURES.items():
        built[name] = figure_driver.build(name)
        save_table(figure.stem, built[name][0])
    table, misses = score_claims(CLAIMS, built, default_scale())
    save_table("paper_claims", table)
    assert not misses, "gated claims that do not pass:\n" + "\n".join(misses)
