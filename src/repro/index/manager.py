"""Index creation.

Two workflows, with very different costs (paper, Section 3.2):

* **index first, then populate** — the index exists before loading, so
  every object is created with its index id (``create_object``'s
  ``index_ids``), which reserves eight header slots, and the index
  absorbs one cheap insert per object;
* **populate, then index** — ``create_index`` must visit every member,
  record the membership in its header, and — for objects created without
  slots — *grow* the header, which moves the record and destroys the
  clustering the loader worked to impose.

"We have always heard that it is more efficient to create an index once
the collection is populated ... This is often true, but not for the
first index."

Entries added after creation go straight into the tree
(:meth:`BTreeIndex.bulk_build` in the loaders, :meth:`BTreeIndex.insert`
in the churn workload).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DuplicateIndexError
from repro.index.btree import BTreeIndex
from repro.objects.database import Database, PersistentCollection


@dataclass(frozen=True)
class IndexBuildReport:
    """What building an index cost."""

    name: str
    entries: int
    headers_rewritten: int
    headers_grown: int
    records_moved: int
    build_seconds: float


class IndexManager:
    """Creates B+-tree indexes for one database."""

    def __init__(self, db: Database):
        self.db = db
        self._next_index_id = 1

    def create_index(
        self,
        name: str,
        collection: PersistentCollection,
        key_attr: str,
    ) -> tuple[BTreeIndex, IndexBuildReport]:
        """Create an integer-keyed index on ``collection`` keyed by
        ``key_attr``.

        Existing members are visited one by one: their key is extracted,
        their header gains the index id (growing — and possibly moving
        the record — when no slot is free), and the tree is bulk-built.
        On an empty collection this is the cheap "index first" setup.
        """
        if name in self.db.indexes:
            raise DuplicateIndexError(f"index {name!r} already exists")
        index_id = self._next_index_id
        self._next_index_id += 1
        index_file = self.db.create_file(f"__index_{name}__")
        index = BTreeIndex(name, index_id, index_file)

        moved_before = self.db.counters.records_moved
        start = self.db.clock.elapsed_s
        pairs: list = []
        rewritten, grown = self.db.manager.stamp_index(
            collection.iter_rids(), index_id, key_attr, pairs
        )
        index.bulk_build(pairs)

        self.db.indexes[name] = index
        report = IndexBuildReport(
            name=name,
            entries=len(pairs),
            headers_rewritten=rewritten,
            headers_grown=grown,
            records_moved=self.db.counters.records_moved - moved_before,
            build_seconds=self.db.clock.elapsed_s - start,
        )
        return index, report
