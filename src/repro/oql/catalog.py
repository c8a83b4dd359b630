"""The catalog: what the optimizer knows about the database.

The paper's cost-model project began with "what statistics should the
system maintain" (Section 2); this is our answer for the query family it
studied: collection sizes, backing-file page counts, available indexes
with their clustering ratios, and parent/child relationships with their
physical co-location properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.loader import (
    INDEX_BY_MRN,
    INDEX_BY_NUM,
    INDEX_BY_UPIN,
    DerbyDatabase,
)
from repro.cluster.strategies import file_names
from repro.derby.config import Clustering
from repro.derby.schema import PATIENTS_NAME, PROVIDERS_NAME
from repro.errors import PlanError
from repro.index.btree import BTreeIndex
from repro.objects.database import Database, PersistentCollection


@dataclass(frozen=True)
class RelationshipInfo:
    """A 1-N parent/child relationship traversable in both directions."""

    parent_collection: str
    set_attr: str             # parent -> set(child)
    child_collection: str
    child_ref: str            # child -> parent back-reference
    #: True when the physical layout stores children next to their
    #: parent (composition / association clustering).
    children_with_parents: bool = False


@dataclass(frozen=True)
class CollectionInfo:
    """One named collection and its physical backing."""

    name: str
    collection: PersistentCollection
    class_name: str
    file_name: str


class Catalog:
    """Schema + statistics registry for one database."""

    def __init__(self, db: Database):
        self.db = db
        self._collections: dict[str, CollectionInfo] = {}
        self._indexes: dict[tuple[str, str], BTreeIndex] = {}
        self._relationships: list[RelationshipInfo] = []

    # -- registration ---------------------------------------------------

    def register_collection(
        self, name: str, collection: PersistentCollection,
        class_name: str, file_name: str,
    ) -> None:
        self._collections[name] = CollectionInfo(
            name, collection, class_name, file_name
        )

    def register_index(self, collection_name: str, attr: str, index: BTreeIndex) -> None:
        self._indexes[(collection_name, attr)] = index

    def register_relationship(self, info: RelationshipInfo) -> None:
        self._relationships.append(info)

    # -- lookup -----------------------------------------------------------

    def collection(self, name: str) -> CollectionInfo:
        try:
            return self._collections[name]
        except KeyError:
            raise PlanError(f"unknown collection {name!r}") from None

    def collection_names(self) -> tuple[str, ...]:
        """Every registered collection name, sorted (deterministic
        iteration order for ANALYZE passes and explain output)."""
        return tuple(sorted(self._collections))

    def relationships(self) -> tuple[RelationshipInfo, ...]:
        """Every registered relationship, in registration order."""
        return tuple(self._relationships)

    def index_for(self, collection_name: str, attr: str) -> BTreeIndex | None:
        return self._indexes.get((collection_name, attr))

    def relationship(self, parent_collection: str, set_attr: str) -> RelationshipInfo:
        for info in self._relationships:
            if (
                info.parent_collection == parent_collection
                and info.set_attr == set_attr
            ):
                return info
        raise PlanError(
            f"no relationship {parent_collection}.{set_attr} in catalog"
        )

    # -- statistics ----------------------------------------------------------

    def collection_size(self, name: str) -> int:
        return len(self.collection(name).collection)

    def file_pages(self, name: str) -> int:
        info = self.collection(name)
        return self.db.file(info.file_name).num_pages

    def extent_pages(self, name: str) -> int:
        """Pages of collection-chunk records an extent scan reads."""
        size = self.collection_size(name)
        from repro.objects.database import CHUNK_RIDS

        return -(-size // CHUNK_RIDS)

    def stamp(self) -> tuple[object, ...]:
        """Everything a planner reads here that can change, as one value:
        each collection's size and file pages, and each registered index
        (by identity) with its :attr:`~repro.index.btree.BTreeIndex.mutations`
        (its leaf count, clustering ratio and selectivity move only with
        them).  Two equal stamps mean the same plans.  Relationships are
        left out: registering one only appends, and a lookup takes the
        first match, so no plan already built can change."""
        files = self.db.file
        stamp: list[object] = []
        for info in self._collections.values():
            stamp += (len(info.collection), files(info.file_name).num_pages)
        for index in self._indexes.values():
            stamp += (index, index.mutations)
        return tuple(stamp)

    # -- construction from a loaded Derby database ---------------------------

    @classmethod
    def from_derby(cls, derby: DerbyDatabase) -> "Catalog":
        catalog = cls(derby.db)
        provider_file, patient_file = file_names(derby.config.clustering)
        catalog.register_collection(
            PROVIDERS_NAME, derby.providers, "Provider", provider_file
        )
        catalog.register_collection(
            PATIENTS_NAME, derby.patients, "Patient", patient_file
        )
        catalog.register_index(
            PROVIDERS_NAME, "upin", derby.db.indexes[INDEX_BY_UPIN]
        )
        catalog.register_index(
            PATIENTS_NAME, "mrn", derby.db.indexes[INDEX_BY_MRN]
        )
        catalog.register_index(
            PATIENTS_NAME, "num", derby.db.indexes[INDEX_BY_NUM]
        )
        catalog.register_relationship(
            RelationshipInfo(
                parent_collection=PROVIDERS_NAME,
                set_attr="clients",
                child_collection=PATIENTS_NAME,
                child_ref="primary_care_provider",
                children_with_parents=derby.config.clustering
                in (Clustering.COMPOSITION, Clustering.ASSOCIATION),
            )
        )
        return catalog
