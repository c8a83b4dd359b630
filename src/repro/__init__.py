"""repro — a reproduction of "Benchmarking Queries over Trees: Learning
the Hard Truth the Hard Way" (Wattez, Cluet, Benzaken, Ferran, Fiegel;
SIGMOD 2000).

An O2-style object database simulator (pages, client/server caches,
handles, indexes, clustering strategies), an OQL subset with a
cost-based optimizer, and a benchmark harness that regenerates every
table and figure of the paper.  See README.md for a tour and DESIGN.md
for the system inventory.

Most-used entry points::

    from repro.cluster import load_derby          # build a paper database
    from repro.derby import DerbyConfig           # ... at any scale
    from repro.oql import Catalog, OQLEngine      # run OQL against it
    from repro.bench import ExperimentRunner      # run measured cells as OQL
    from repro.exec import ALGORITHMS             # the join names a plan forces
    from repro.stats import StatsDatabase         # Figure 3 results storage
    from repro.analysis import fit_cost_model     # elicit the cost model
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
