"""Workload definitions shared by the figure builders."""

from __future__ import annotations

from repro.derby.config import DerbyConfig

#: The Section 5 grid: (selectivity on patients, selectivity on providers).
SELECTIVITY_GRID: tuple[tuple[int, int], ...] = (
    (10, 10),
    (10, 90),
    (90, 10),
    (90, 90),
)


def figure6_selectivities() -> tuple[float, ...]:
    """Selectivities (percent) of the Figure 6 selection sweep."""
    return (0.1, 1.0, 5.0, 10.0, 30.0, 60.0, 90.0)


def figure7_selectivities() -> tuple[int, ...]:
    """Selectivities (percent) of the Figure 7 comparison."""
    return (10, 30, 60, 90)


def tree_query_text(config: DerbyConfig, sel_pat: int, sel_prov: int) -> str:
    """The paper's Section 5 query, with thresholds for a selectivity
    pair, as OQL text."""
    k1 = config.mrn_threshold(sel_pat)
    k2 = config.upin_threshold(sel_prov)
    return (
        "select tuple(n: p.name, a: pa.age) "
        "from p in Providers, pa in p.clients "
        f"where pa.mrn < {k1} and p.upin < {k2}"
    )


def selection_query_text(
    config: DerbyConfig, selectivity_pct: float, project: str = "age"
) -> str:
    """The Section 4 selection, projecting ``project``, as OQL text."""
    k = config.num_threshold(selectivity_pct)
    return f"select p.{project} from p in Patients where p.num > {k}"
