"""The OO7 operations this reproduction needs.

* **T1** — full traversal: depth-first over the assembly tree, then a
  DFS over every composite part's atomic-part graph, touching every
  connection.  Pure pointer navigation — the workload O2's handles were
  tuned for.
* **T6** — sparse traversal: like T1 but visiting only each composite
  part's *root* atomic part.
* **Q1** — exact-match lookups of random atomic parts through the id
  index (the associative side).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.derby.lrand48 import Lrand48
from repro.objects.handle import Handle
from repro.oo7.builder import OO7Database
from repro.oo7.schema import (
    BASE_ASSEMBLY_CLASS,
    COMPLEX_ASSEMBLY_CLASS,
)


@dataclass(frozen=True)
class TraversalResult:
    """Outcome + meters of one traversal."""

    visited_atomic: int
    visited_assemblies: int
    elapsed_s: float
    page_reads: int


def _class_name(handle: Handle) -> str:
    return handle.class_def.name


def _traverse(oo7: OO7Database, full: bool) -> TraversalResult:
    db = oo7.db
    om = db.manager
    visited_atomic = 0
    visited_assemblies = 0

    def visit_atomic_graph(root_rid) -> int:
        """DFS over the connection graph of one composite part."""
        seen = set()
        stack = [root_rid]
        count = 0
        while stack:
            rid = stack.pop()
            if rid in seen:
                continue
            seen.add(rid)
            count += 1
            with om.borrow(rid) as handle:
                __ = om.get_attr(handle, "x")  # the op "does work" per part
                connections = om.get_attr(handle, "conn_out")
            stack.extend(
                r for r in db.iter_set_rids(connections) if r not in seen
            )
        return count

    def visit_assembly(rid) -> None:
        nonlocal visited_atomic, visited_assemblies
        visited_assemblies += 1
        # The handle is released before recursing so the number of live
        # handles stays bounded by one per tree level, as before.
        with om.borrow(rid) as handle:
            name = _class_name(handle)
            if name == COMPLEX_ASSEMBLY_CLASS:
                members = om.get_attr(handle, "subassemblies")
            else:
                assert name == BASE_ASSEMBLY_CLASS
                members = om.get_attr(handle, "components")
        if name == COMPLEX_ASSEMBLY_CLASS:
            for child in db.iter_set_rids(members):
                visit_assembly(child)
            return
        for part_rid in db.iter_set_rids(members):
            with om.borrow(part_rid) as part:
                root = om.get_attr(part, "root_part")
            if full:
                visited_atomic += visit_atomic_graph(root)
            else:
                with om.borrow(root) as root_handle:
                    __ = om.get_attr(root_handle, "x")
                visited_atomic += 1

    with om.borrow(oo7.module_rid) as module:
        assemblies = om.get_attr(module, "assemblies")
    start_reads = db.counters.disk_reads
    for rid in db.iter_set_rids(assemblies):
        visit_assembly(rid)
    return TraversalResult(
        visited_atomic=visited_atomic,
        visited_assemblies=visited_assemblies,
        elapsed_s=db.clock.elapsed_s,
        page_reads=db.counters.disk_reads - start_reads,
    )


def traversal_t1(oo7: OO7Database) -> TraversalResult:
    """OO7 T1: full traversal touching every atomic part and connection."""
    return _traverse(oo7, full=True)


def traversal_t6(oo7: OO7Database) -> TraversalResult:
    """OO7 T6: traversal touching only each part's root atomic part."""
    return _traverse(oo7, full=False)


def query_q1(oo7: OO7Database, lookups: int = 10) -> int:
    """OO7 Q1: exact-match lookups of random atomic parts by id.
    Returns the number found (== ``lookups`` on a healthy database)."""
    om = oo7.db.manager
    rng = Lrand48(41)
    found = 0
    for __ in range(lookups):
        part_id = 1 + rng.randrange(oo7.config.n_atomic_parts)
        for rid in oo7.by_atomic_id.lookup(part_id):
            if om.get_attr_at(rid, "id") == part_id:
                found += 1
    return found
