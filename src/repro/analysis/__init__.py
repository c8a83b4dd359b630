"""Data analysis over benchmark results — the paper's unreached goal.

"Our hope was that, with the help of an expert in data analysis ..., we
could elicit a cost model from the results (in a manner similar to what
[Fedorowicz] proposes)" (Section 2).  The paper never collected enough
runs; this package closes the loop on the simulator:

* :mod:`repro.analysis.regression` fits per-event cost coefficients
  (milliseconds per page read, microseconds per handle, ...) from
  measured experiments by least squares, and — because the simulator's
  true constants are known — validates that the fit *recovers* them;
* :mod:`repro.analysis.validation` scores the optimizer: for every
  experimental cell, how close was the cost-based choice to the actual
  winner?
"""

from repro.analysis.regression import CostFit, fit_cost_model
from repro.analysis.validation import score_optimizer

__all__ = ["fit_cost_model", "CostFit", "score_optimizer"]
