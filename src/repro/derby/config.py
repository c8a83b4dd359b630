"""Configuration of a Derby database build.

The paper studies two logical databases — 2,000 providers with ~1,000
patients each and 1,000,000 providers with ~3 patients each — under three
physical organizations, on a machine with fixed memory budgets.  A
:class:`DerbyConfig` names one such combination at a chosen *scale*:
object counts and memory budgets shrink together so that every ratio the
results depend on (cache pages / file pages, hash bytes / free RAM) is
preserved (DESIGN.md §5).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, replace

from repro.errors import BenchError
from repro.simtime import CostParams

#: Environment variable overriding the default scale for benchmarks.
SCALE_ENV_VAR = "REPRO_SCALE"

DEFAULT_SCALE = 0.01


class Clustering(enum.Enum):
    """The paper's three physical organizations (Figure 2) plus the
    association-ordered alternative of Carey & Lapis [4] discussed in
    Section 5.3."""

    CLASS = "class"              # one file per class, creation order
    RANDOM = "random"            # one file, random interleaving
    COMPOSITION = "composition"  # one file, provider followed by patients
    ASSOCIATION = "association"  # two files, patients in provider order


def is_positive(value: float) -> bool:
    """Finite and above zero: the one rule for a scale or a count given
    from outside (``nan`` fails both comparisons)."""
    return 0 < value < math.inf


def default_scale() -> float:
    """Scale factor from ``REPRO_SCALE`` or the library default."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw is None:
        return DEFAULT_SCALE
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not is_positive(scale):
        raise BenchError(
            f"{SCALE_ENV_VAR} must be a finite number above zero, not {raw!r}"
        )
    return scale


@dataclass(frozen=True)
class DerbyConfig:
    """One database build recipe."""

    n_providers: int
    n_patients: int
    clustering: Clustering = Clustering.CLASS
    scale: float = 1.0
    seed: int = 1997
    #: Create indexes before populating (the paper's hard-won advice).
    index_first: bool = True
    #: Load inside logged transactions (the slow path; the paper loads
    #: with transactions off).
    logged_load: bool = False
    params: CostParams = field(default_factory=CostParams)

    def __post_init__(self) -> None:
        if self.n_providers < 1 or self.n_patients < 1:
            raise ValueError("need at least one provider and one patient")

    # -- the paper's two databases -------------------------------------

    @classmethod
    def db_1to1000(
        cls, scale: float | None = None, clustering: Clustering = Clustering.CLASS,
        **overrides,
    ) -> "DerbyConfig":
        """2,000 providers x ~1,000 patients each (2M patients)."""
        scale = default_scale() if scale is None else scale
        return cls(
            n_providers=max(2, round(2_000 * scale)),
            n_patients=max(20, round(2_000_000 * scale)),
            clustering=clustering,
            scale=scale,
            params=CostParams().scaled(scale),
            **overrides,
        )

    @classmethod
    def db_1to3(
        cls, scale: float | None = None, clustering: Clustering = Clustering.CLASS,
        **overrides,
    ) -> "DerbyConfig":
        """1,000,000 providers x ~3 patients each (3M patients)."""
        scale = default_scale() if scale is None else scale
        return cls(
            n_providers=max(4, round(1_000_000 * scale)),
            n_patients=max(12, round(3_000_000 * scale)),
            clustering=clustering,
            scale=scale,
            params=CostParams().scaled(scale),
            **overrides,
        )

    @classmethod
    def paper_db(
        cls, relationship: str, organization: str, scale: float | None = None
    ) -> "DerbyConfig":
        """One of the two databases by the name the paper gives it
        ("1:1000" / "1:3") under a physical organization named by its
        :class:`Clustering` value."""
        makers = {"1:1000": cls.db_1to1000, "1:3": cls.db_1to3}
        return makers[relationship](
            scale=scale, clustering=Clustering(organization)
        )

    def with_clustering(self, clustering: Clustering) -> "DerbyConfig":
        return replace(self, clustering=clustering)

    @property
    def avg_children(self) -> float:
        return self.n_patients / self.n_providers

    # -- predicate thresholds -------------------------------------------

    def mrn_threshold(self, selectivity_pct: float) -> int:
        """k1 such that ``mrn < k1`` selects ~selectivity_pct% of
        patients (mrn is the 1-based creation rank, uniform)."""
        return round(self.n_patients * selectivity_pct / 100.0) + 1

    def upin_threshold(self, selectivity_pct: float) -> int:
        """k2 such that ``upin < k2`` selects ~selectivity_pct% of
        providers."""
        return round(self.n_providers * selectivity_pct / 100.0) + 1

    def num_threshold(self, selectivity_pct: float) -> int:
        """k such that ``num > k`` selects ~selectivity_pct% of patients
        (num is uniform over [0, n_patients))."""
        return round(self.n_patients * (1.0 - selectivity_pct / 100.0)) - 1
