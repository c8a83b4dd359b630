"""Build a miniature OO7 database on the object engine.

OO7's "small" configuration uses fan-out 3 assemblies over 7 levels,
3 composite parts per base assembly and 20 atomic parts per composite
part in a ring with 3 outgoing connections each.  The constants here
shrink the tree (the simulator's page mechanics do not need millions of
parts to show the navigation patterns) but keep every structural ratio.

Composite parts are laid out composition-style — each part's atomic
parts directly follow it — which is what makes OO7-style traversals
cache-friendly and is precisely the layout the paper's Figure 13/14
experiments study from the associative side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.derby.lrand48 import Lrand48
from repro.index import BTreeIndex, IndexManager
from repro.objects.database import Database, PersistentCollection
from repro.objects.handle import HandleMode
from repro.oo7.schema import (
    ATOMIC_PART_CLASS,
    BASE_ASSEMBLY_CLASS,
    COMPLEX_ASSEMBLY_CLASS,
    COMPOSITE_PART_CLASS,
    MODULE_CLASS,
    build_oo7_schema,
)
from repro.simtime import CostParams
from repro.storage.rid import Rid

#: File holding the whole design database (OO7 clusters by composition).
DESIGN_FILE = "design"


#: The structure: OO7-small's ratios over a smaller tree.
ASSEMBLY_FANOUT = 3
ASSEMBLY_LEVELS = 4  # OO7-small uses 7
PARTS_PER_BASE = 3
ATOMIC_PER_COMPOSITE = 20
CONNECTIONS_PER_ATOMIC = 3
#: Seed of the builder's lrand48 stream (ids, coordinates, build dates).
BUILD_SEED = 7

N_BASE_ASSEMBLIES = ASSEMBLY_FANOUT ** (ASSEMBLY_LEVELS - 1)
N_COMPOSITE_PARTS = N_BASE_ASSEMBLIES * PARTS_PER_BASE
N_ATOMIC_PARTS = N_COMPOSITE_PARTS * ATOMIC_PER_COMPOSITE


@dataclass
class OO7Database:
    """A built OO7 module."""

    db: Database
    module_rid: Rid
    atomic_parts: PersistentCollection
    composite_parts: PersistentCollection
    by_atomic_id: BTreeIndex
    by_build_date: BTreeIndex

    def start_cold_run(self) -> None:
        self.db.restart_cold()
        self.db.reset_meters()


def build_oo7(handle_mode: HandleMode = HandleMode.FULL) -> OO7Database:
    """Construct the module, its assembly tree and all parts."""
    # Memory budgets of scale 0.01.
    db = Database(build_oo7_schema(), CostParams().scaled(0.01), handle_mode)
    db.create_file(DESIGN_FILE)
    atomic_parts = db.new_collection("AtomicParts")
    composite_parts = db.new_collection("CompositeParts")
    manager = IndexManager(db)
    by_atomic_id, __ = manager.create_index(
        "AtomicParts_by_id", atomic_parts, "id"
    )
    by_build_date, __ = manager.create_index(
        "CompositeParts_by_build_date", composite_parts, "build_date"
    )

    rng = Lrand48(BUILD_SEED)
    counters = {"assembly": 0, "part": 0, "atomic": 0}
    atomic_pairs: list[tuple[object, Rid]] = []
    composite_pairs: list[tuple[object, Rid]] = []

    def build_composite_part() -> Rid:
        counters["part"] += 1
        part_id = counters["part"]
        # Atomic parts first (they directly follow... the part record is
        # written after, but all land contiguously in the design file).
        atomic_rids: list[Rid] = []
        for __i in range(ATOMIC_PER_COMPOSITE):
            counters["atomic"] += 1
            rid = db.create_object(
                ATOMIC_PART_CLASS,
                {
                    "id": counters["atomic"],
                    "x": rng.randrange(100_000),
                    "y": rng.randrange(100_000),
                    "doc_id": part_id,
                    "conn_out": (),
                },
                DESIGN_FILE,
                index_ids=(by_atomic_id.index_id,),
            )
            atomic_rids.append(rid)
            atomic_parts.append(rid)
            atomic_pairs.append((counters["atomic"], rid))
        # Ring + chords connections.
        n = len(atomic_rids)
        for i, rid in enumerate(atomic_rids):
            targets = [
                atomic_rids[(i + 1 + step * 3) % n]
                for step in range(CONNECTIONS_PER_ATOMIC)
            ]
            db.manager.update_set(rid, "conn_out", db.prepare_set(targets))
        build_date = rng.randrange(10_000)
        part_rid = db.create_object(
            COMPOSITE_PART_CLASS,
            {
                "id": part_id,
                "build_date": build_date,
                "root_part": atomic_rids[0],
                "parts": atomic_rids,
            },
            DESIGN_FILE,
            index_ids=(by_build_date.index_id,),
        )
        composite_parts.append(part_rid)
        composite_pairs.append((build_date, part_rid))
        return part_rid

    def build_assembly(level: int) -> Rid:
        counters["assembly"] += 1
        assembly_id = counters["assembly"]
        if level == ASSEMBLY_LEVELS - 1:
            components = [
                build_composite_part() for __i in range(PARTS_PER_BASE)
            ]
            return db.create_object(
                BASE_ASSEMBLY_CLASS,
                {"id": assembly_id, "components": components},
                DESIGN_FILE,
            )
        children = [
            build_assembly(level + 1) for __i in range(ASSEMBLY_FANOUT)
        ]
        return db.create_object(
            COMPLEX_ASSEMBLY_CLASS,
            {"id": assembly_id, "level": level, "subassemblies": children},
            DESIGN_FILE,
        )

    root = build_assembly(0)
    module_rid = db.create_object(
        MODULE_CLASS,
        {"id": 1, "title": "module-1", "assemblies": [root]},
        DESIGN_FILE,
    )
    atomic_parts.flush()
    composite_parts.flush()
    by_atomic_id.bulk_build(atomic_pairs)
    by_build_date.bulk_build(composite_pairs)
    db.shutdown()
    return OO7Database(
        db=db,
        module_rid=module_rid,
        atomic_parts=atomic_parts,
        composite_parts=composite_parts,
        by_atomic_id=by_atomic_id,
        by_build_date=by_build_date,
    )
