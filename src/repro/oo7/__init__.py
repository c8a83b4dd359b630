"""A miniature OO7 benchmark [Carey, DeWitt & Naughton, SIGMOD '93].

OO7 is the benchmark the paper positions itself against: it "aims at
comparing the performances of object-oriented systems, not the different
strategies for object query evaluation.  Notably, it considers
navigation down hierarchical structures but not alternative join
evaluation of this navigation" (Sections 2 and 5).

This package implements the OO7 design-database schema (module →
assembly tree → composite parts → atomic-part graphs), a scaled builder,
and the classic operations — T1 full traversal, T6 root-only traversal,
Q1 exact-match lookups — on *this* object engine.  Its purpose here is
to test the paper's closing claim: the proposed handle cures speed up
cold associative accesses "without hurting those of main memory
navigation", i.e. without hurting exactly the workload OO7 measures.
"""

from repro.oo7.builder import OO7Config, OO7Database, build_oo7
from repro.oo7.operations import (
    query_q1,
    traversal_t1,
    traversal_t6,
)
from repro.oo7.schema import build_oo7_schema

__all__ = [
    "OO7Config",
    "OO7Database",
    "build_oo7",
    "build_oo7_schema",
    "traversal_t1",
    "traversal_t6",
    "query_q1",
]
