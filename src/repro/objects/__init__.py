"""The object layer: an ODMG-style data model over the storage substrate.

This package implements the pieces of O2's object machinery that the
paper's analysis rests on:

* a class model with inheritance and typed attributes
  (:mod:`~repro.objects.model`),
* a binary record codec with fixed-offset scalar attributes and
  inline-or-overflow set attributes (:mod:`~repro.objects.codec`) —
  collections whose encoding exceeds a threshold move to a separate
  large-collection file, as in O2 (paper, Section 2),
* on-disk object headers carrying index-membership slots
  (:mod:`~repro.objects.header`) — eight slots reserved at creation for
  objects in indexed collections, and an expensive record *move* when a
  slot-less object must be indexed later (paper, Section 3.2),
* in-memory object representatives — *Handles* — with reference counts,
  delayed destruction, and the paper's proposed compact/bulk variants
  (:mod:`~repro.objects.handle`, Section 4.4),
* an :class:`~repro.objects.manager.ObjectManager` tying it together, and
* a :class:`~repro.objects.database.Database` with named roots and
  persistent collections.
"""

from repro.objects.codec import RecordCodec
from repro.objects.database import Database, PersistentCollection
from repro.objects.handle import Handle, HandleMode, HandleTable
from repro.objects.header import ObjectHeader
from repro.objects.manager import ObjectManager
from repro.objects.model import (
    AttributeDef,
    AttrKind,
    ClassDef,
    Schema,
)
from repro.objects.versions import VersionInfo, VersionManager

__all__ = [
    "AttrKind",
    "AttributeDef",
    "ClassDef",
    "Schema",
    "RecordCodec",
    "ObjectHeader",
    "Handle",
    "HandleMode",
    "HandleTable",
    "ObjectManager",
    "Database",
    "PersistentCollection",
    "VersionManager",
    "VersionInfo",
]
