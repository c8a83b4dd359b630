"""An OQL subset with a cost-based optimizer.

The paper's original goal — never reached — was a cost model good enough
to drive O2's OQL optimizer ("our first task was to find out what
statistics the system should maintain and how to incorporate them into a
cost model", Section 2).  This package closes that loop for the query
family the paper studied:

* simple selections with comparison predicates
  (``select p.age from p in Patients where p.num > 1800000``), choosing
  between a full scan, an unclustered index scan, and the paper's
  *sorted* index scan discovery;
* the tree query over a parent/child hierarchy
  (``select tuple(n: p.name, a: pa.age) from p in Providers,
  pa in p.clients where pa.mrn < k1 and p.upin < k2``), choosing among
  NL, NOJOIN, PHJ and CHJ with the mechanism-derived cost formulas of
  :mod:`repro.oql.cost`.

One planner (:mod:`repro.oql.optimizer`) makes both choices, with
selectivities and join shapes from :mod:`repro.oql.estimator`; the
``analyze`` statement installs :mod:`repro.opt` statistics into it,
which widens its search to every indexed access path.

Entry point: :class:`OQLEngine`.
"""

from repro.oql.ast_nodes import (
    AnalyzeStmt,
    BinOp,
    BoolOp,
    CollectionRef,
    ExplainStmt,
    FromClause,
    Literal,
    Path,
    Query,
    Statement,
    TupleExpr,
)
from repro.oql.catalog import Catalog, RelationshipInfo
from repro.oql.cost import CostModel, PlanEstimate
from repro.oql.engine import OQLEngine
from repro.oql.lexer import Token, tokenize
from repro.oql.optimizer import Optimizer, SelectionPlan, TreeJoinPlan
from repro.oql.parser import parse, parse_statement
from repro.oql.printer import print_query

__all__ = [
    "tokenize",
    "Token",
    "parse",
    "parse_statement",
    "print_query",
    "Query",
    "Statement",
    "ExplainStmt",
    "AnalyzeStmt",
    "FromClause",
    "Path",
    "Literal",
    "BinOp",
    "BoolOp",
    "TupleExpr",
    "CollectionRef",
    "Catalog",
    "RelationshipInfo",
    "CostModel",
    "PlanEstimate",
    "Optimizer",
    "SelectionPlan",
    "TreeJoinPlan",
    "OQLEngine",
]
