"""The paper's four tree-query algorithms, plus the two it points at.

All six evaluate the same query over a parent/child hierarchy::

    select [parent.P_ATTR, child.C_ATTR]
    from p in Parents, c in p.children
    where c.CHILD_KEY < k1 and p.PARENT_KEY < k2

on a database where parents carry a ``children`` ref-set and children a
back-reference.  The :class:`TreeJoinQuery` names the pieces, so the
algorithms work for any such schema (Derby doctors/patients, the XML
example, ...).

Conventions shared by all algorithms, following Section 5:

* both predicates are evaluated through *clustered* indexes whenever the
  algorithm's access pattern allows an index at all;
* hash tables store whatever ``f(p, pa)`` needs (here: one projected
  attribute), sized by Figure 10's model;
* results are built under standard transaction mode.

Since the pipeline refactor the algorithm bodies live in
:mod:`repro.exec.operators.joins` as streaming operators; the functions
below drain those operators and return the full row list, at identical
charged cost.  Streaming consumers go through the operator package (or
``OQLEngine.execute_iter``) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.exec.operators.joins import drain_algorithm
from repro.exec.sorter import sort_charged
from repro.index.btree import BTreeIndex
from repro.objects.database import Database
from repro.storage.rid import Rid


@dataclass
class TreeJoinQuery:
    """One instance of the tree query, bound to a database."""

    db: Database
    parent_index: BTreeIndex        # parents by PARENT_KEY (clustered)
    child_index: BTreeIndex         # children by CHILD_KEY (clustered)
    parent_high: object             # PARENT_KEY < parent_high
    child_high: object              # CHILD_KEY < child_high
    n_parents: int                  # parent domain size (CHJ directory)
    parent_key: str = "upin"
    child_key: str = "mrn"
    child_ref: str = "primary_care_provider"
    parent_set: str = "clients"
    parent_project: str = "name"
    child_project: str = "age"
    transactional_result: bool = True

    # -- index scans both sides share ------------------------------------
    #
    # Both scans materialize the qualifying rids and *sort them by
    # physical address* before fetching — the paper's own Figure 8
    # technique, and the reason it can state that the hash joins "access
    # them in a sequential way" and that under NOJOIN "patients (the
    # large collection) are always accessed sequentially" even when the
    # key order does not match the physical layout (composition/random
    # organizations).

    def selected_parents(self) -> Iterator[Rid]:
        return self._selected(self.parent_index, self.parent_high)

    def selected_children(self) -> Iterator[Rid]:
        return self._selected(self.child_index, self.child_high)

    def _selected(self, index: BTreeIndex, high: object) -> Iterator[Rid]:
        """Rids of the objects keyed below ``high``, in physical order."""
        rids = [rid for __, rid in index.range_scan(None, high, include_high=False)]
        return iter(sort_charged(rids, self.db.clock, self.db.params))


JoinAlgorithm = Callable[[TreeJoinQuery], list[tuple]]


def navigation_parent_to_child(q: TreeJoinQuery) -> list[tuple]:
    """**NL** — parent-to-child pure navigation.

    Only the parent index is usable (children are reached through their
    parents), so the child predicate is tested on every child of every
    selected parent: the big handicap the paper calls out, since the
    child collection can be a thousand times larger.
    """
    return drain_algorithm(q, "NL")


def navigation_child_to_parent(q: TreeJoinQuery) -> list[tuple]:
    """**NOJOIN** — child-to-parent pure navigation.

    Uses the index of the *largest* collection, but may test the parent
    predicate once per child (up to 1,000 times per parent); "the join
    is hidden within the navigation pattern".
    """
    return drain_algorithm(q, "NOJOIN")


def hash_parents_join(q: TreeJoinQuery) -> list[tuple]:
    """**PHJ** — hash the parents, probe with the children.

    Both indexes apply and both collections are read sequentially; the
    table holds (parent id, parent information) per selected parent.
    """
    return drain_algorithm(q, "PHJ")


def hash_children_join(q: TreeJoinQuery) -> list[tuple]:
    """**CHJ** — hash the children by parent, probe with the parents.

    The paper's variation of the pointer-based join of Shekita & Carey
    [14]: because there is no hybrid hashing, the parent collection can
    be scanned *sequentially* instead of in hash order.  The price is a
    table holding the children — 3 to 1000 times more entries — over a
    bucket directory covering the whole parent domain (Figure 10).
    """
    return drain_algorithm(q, "CHJ")


def sort_merge_join(q: TreeJoinQuery) -> list[tuple]:
    """Sort-merge pointer join — the family the paper "started testing
    ... but they proved to be worse than hash-based ones and we dropped
    them".  Kept for the ablation benchmark.

    Children are reduced to (parent rid, projected value) pairs and
    sorted by parent rid; parents arrive rid-sorted from their clustered
    index scan; a merge pass pairs them up.
    """
    return drain_algorithm(q, "SMJ")


def hybrid_hash_parents_join(q: TreeJoinQuery) -> list[tuple]:
    """Hybrid-hash PHJ — the improvement the paper names but never ran
    ("we did not consider hybrid hashing [17] to optimize this").

    When the parent table would exceed the memory budget, the overflow
    fraction of both inputs is partitioned to disk and re-read, instead
    of letting the OS thrash: the swap penalty is replaced by sequential
    partition I/O, which is the entire point of hybrid hashing.
    """
    return drain_algorithm(q, "PHJ-HYBRID")


#: Registry used by the benchmark harness and the optimizer; the keys
#: are the paper's algorithm names.
ALGORITHMS: dict[str, JoinAlgorithm] = {
    "NL": navigation_parent_to_child,
    "NOJOIN": navigation_child_to_parent,
    "PHJ": hash_parents_join,
    "CHJ": hash_children_join,
    "SMJ": sort_merge_join,
    "PHJ-HYBRID": hybrid_hash_parents_join,
}
