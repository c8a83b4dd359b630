"""Indexes on arbitrary collections.

O2 "manages indexes on arbitrary collections (i.e., not just class
extents)" (paper, Section 1) — which is exactly why every object must
record, in its disk header, the indexes it belongs to, and why adding the
first index to an already-populated collection reallocates every object
(Section 3.2).

:class:`~repro.index.btree.BTreeIndex` is a B+-tree whose leaves live as
records in an index file (leaf reads cost real simulated I/O; the inner
directory is assumed cached, as the paper's analysis does).
:class:`~repro.index.manager.IndexManager` creates indexes, updates the
member objects' headers — paying the reallocation when headers must grow
— and registers the index with the database.
"""

from repro.index.btree import BTreeIndex
from repro.index.manager import IndexBuildReport, IndexManager

__all__ = ["BTreeIndex", "IndexManager", "IndexBuildReport"]
