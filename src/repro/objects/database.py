"""The database: files, named roots, persistent collections, objects.

A :class:`Database` wires the whole stack together — disk, two-tier
buffer system, handle table, object manager — and owns:

* named storage files (one per class for class clustering, a single file
  for random/composition clustering — paper, Figure 2),
* a *large-collection file* holding spilled set values and extent
  collections (O2 stores collections beyond a page in a separate file),
* named roots (ODMG names, Figure 1: ``Providers``, ``Patients``),
* the index registry filled in by :class:`repro.index.IndexManager`.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.buffer import ClientServerSystem
from repro.errors import ObjectError, SchemaError
from repro.objects.codec import (
    INLINE_SET_LIMIT_BYTES,
    InlineSet,
    OverflowSet,
    RecordCodec,
    decode_rid,
    decode_rids,
    encode_rid,
    encode_rids,
)
from repro.objects.handle import HandleMode, HandleTable
from repro.objects.header import ObjectHeader
from repro.objects.manager import ObjectManager
from repro.objects.model import ClassDef, Schema
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.disk import DiskManager
from repro.storage.file import StorageFile
from repro.storage.rid import NIL_RID, Rid
from repro.units import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.btree import BTreeIndex

_LOAD = Bucket.LOAD

#: Rids per collection chunk record (~3.2 KB, one chunk per page).
CHUNK_RIDS = 400

_CHUNK_PREFIX = struct.Struct("<I")  # element count; then next-rid, rids

#: Reserved file name for spilled collections and extents.
COLLECTIONS_FILE = "__collections__"


class PersistentCollection:
    """A persistent list of rids, stored as chunk records.

    Extents and named roots are instances of this class.  Appends buffer
    in memory and flush whole chunks (one write per chunk, the pattern a
    bulk loader produces); iteration reads the chunks back through the
    page caches, so scanning a large extent costs real simulated I/O.
    """

    def __init__(self, db: "Database", name: str | None = None):
        self._db = db
        self.name = name
        #: ``True`` once an index exists on this collection — objects
        #: created into an indexed collection get header slots up front.
        self.indexed = False
        self._chunk_rids: list[Rid] = []
        self._pending: list[Rid] = []
        self._count = 0

    def append(self, rid: Rid) -> None:
        self._pending.append(rid)
        self._count += 1
        if len(self._pending) >= CHUNK_RIDS:
            self._flush_chunk()

    def flush(self) -> None:
        """Write any buffered tail chunk."""
        if self._pending:
            self._flush_chunk()

    def __len__(self) -> int:
        return self._count

    def iter_rids(self) -> Iterator[Rid]:
        """Yield every element rid, reading chunks through the caches."""
        self.flush()
        sfile = self._db.collections_file
        for chunk_rid in self._chunk_rids:
            yield from _decode_chunk(sfile.read(chunk_rid))[0]

    def _flush_chunk(self) -> None:
        chunk = _encode_chunk(self._pending, NIL_RID)
        self._chunk_rids.append(self._db.collections_file.insert(chunk))
        self._pending.clear()


def _encode_chunk(rids: list[Rid], next_rid: Rid) -> bytes:
    return _CHUNK_PREFIX.pack(len(rids)) + encode_rid(next_rid) + encode_rids(rids)


def _decode_chunk(record: bytes) -> tuple[list[Rid], Rid]:
    (count,) = _CHUNK_PREFIX.unpack_from(record, 0)
    next_rid = decode_rid(record, _CHUNK_PREFIX.size)
    base = _CHUNK_PREFIX.size + Rid.DISK_SIZE
    end = base + count * Rid.DISK_SIZE
    if end > len(record):  # a slice would silently stop short
        raise struct.error(f"chunk of {count} rids overruns its record")
    return list(decode_rids(record[base:end])), next_rid


def _new_object_header(class_def: ClassDef, index_ids: tuple[int, ...]) -> bytes:
    header = ObjectHeader.for_new_object(class_def.class_id, bool(index_ids))
    for index_id in index_ids:
        header.add_index(index_id)
    return header.encode()


class Database:
    """One simulated O2 database instance."""

    def __init__(
        self,
        schema: Schema | None = None,
        params: CostParams | None = None,
        handle_mode: HandleMode = HandleMode.FULL,
    ):
        self.schema = schema or Schema()
        self.params = params or CostParams()
        self.clock = SimClock()
        self.counters = CounterSet()
        self.disk = DiskManager(self.params, self.clock, self.counters)
        self.system = ClientServerSystem(self.disk, self.params.memory)
        self.handles = HandleTable(self.clock, self.params, self.counters, handle_mode)
        self.manager = ObjectManager(self.schema, self.disk, self.handles)
        self.indexes: dict[str, "BTreeIndex"] = {}
        self._files: dict[str, StorageFile] = {}
        self._names: dict[str, PersistentCollection] = {}
        #: ``(class name, file name, index_ids)`` -> everything
        #: :meth:`create_object` resolves from its arguments: the class's
        #: codec, the encoded header of a new object (built and
        #: range-checked once through :class:`ObjectHeader`) and the
        #: file.  A load creates its objects under a handful of keys.
        self._creates: dict[
            tuple[str, str, tuple[int, ...]],
            tuple[RecordCodec, bytes, StorageFile],
        ] = {}

    # -- files ---------------------------------------------------------------

    def create_file(self, name: str, fill_factor: float = 0.85) -> StorageFile:
        if name in self._files:
            raise ObjectError(f"file {name!r} already exists")
        sfile = StorageFile(self.disk, self.system, fill_factor=fill_factor)
        self._files[name] = sfile
        self.manager.register_file(sfile)
        return sfile

    def file(self, name: str) -> StorageFile:
        try:
            return self._files[name]
        except KeyError:
            raise ObjectError(f"no file named {name!r}") from None

    def has_file(self, name: str) -> bool:
        return name in self._files

    @property
    def collections_file(self) -> StorageFile:
        if COLLECTIONS_FILE not in self._files:
            self.create_file(COLLECTIONS_FILE, fill_factor=1.0)
        return self._files[COLLECTIONS_FILE]

    # -- named roots -----------------------------------------------------------

    def new_collection(self, name: str | None = None) -> PersistentCollection:
        collection = PersistentCollection(self, name)
        if name is not None:
            if name in self._names:
                raise ObjectError(f"name {name!r} already bound")
            self._names[name] = collection
        return collection

    # -- objects -------------------------------------------------------------

    def create_object(
        self,
        class_name: str,
        values: dict[str, object],
        file_name: str,
        index_ids: tuple[int, ...] = (),
    ) -> Rid:
        """Make ``values`` persistent as a new object of ``class_name`` in
        file ``file_name``.

        A non-empty ``index_ids`` stamps memberships directly into the
        fresh header (the create-index-before-loading workflow), which
        reserves eight index slots — the object is created as a member
        of an indexed collection; otherwise the header has no index
        space and indexing the object later forces a record rewrite,
        possibly a move (Section 3.2).
        """
        key = (class_name, file_name, index_ids)
        try:
            codec, header, sfile = self._creates[key]
        except KeyError:
            class_def = self.schema.cls(class_name)
            codec, header, sfile = self._creates[key] = (
                self.manager.codec(class_def),
                _new_object_header(class_def, index_ids),
                self.file(file_name),
            )
        if codec.set_names:
            values = dict(values)
            for name in codec.set_names:
                values[name] = self.prepare_set(values.get(name))
        record = header + codec.encode_body(values)
        # charge_us(LOAD, object_create_us), without the call
        self.clock.buckets[_LOAD] += self.params.object_create_us / US_PER_S
        return sfile.insert(record)

    def prepare_set(self, value: object) -> InlineSet | OverflowSet:
        """Normalize a set value: small sequences stay inline, large ones
        spill to the collection file."""
        if value is None:
            return InlineSet(())
        if isinstance(value, (InlineSet, OverflowSet)):
            return value
        rids = tuple(value)  # type: ignore[arg-type]
        if len(rids) * Rid.DISK_SIZE > INLINE_SET_LIMIT_BYTES:
            return self.spill_set(rids)
        return InlineSet(rids)

    def spill_set(self, rids: Iterable[Rid]) -> OverflowSet:
        """Write a large set to the collection file as a chunk chain and
        return the :class:`OverflowSet` descriptor to embed in the owner."""
        all_rids = list(rids)
        sfile = self.collections_file
        next_rid = NIL_RID
        # Write chunks back-to-front so each knows its successor.
        for start in range(
            (len(all_rids) - 1) // CHUNK_RIDS * CHUNK_RIDS, -1, -CHUNK_RIDS
        ):
            chunk = _encode_chunk(all_rids[start : start + CHUNK_RIDS], next_rid)
            next_rid = sfile.insert(chunk)
        return OverflowSet(next_rid, len(all_rids))

    def iter_set_rids(self, value: object) -> Iterator[Rid]:
        """Iterate the rids of a decoded set attribute value, charging
        chunk reads for overflow sets."""
        if isinstance(value, InlineSet):
            yield from value.rids
            return
        if not isinstance(value, OverflowSet):
            raise SchemaError(f"not a set value: {value!r}")
        sfile = self.collections_file
        head = value.head
        while head != NIL_RID:
            rids, head = _decode_chunk(sfile.read(head))
            yield from rids

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Flush dirty pages and drop all cached state (charged)."""
        self.system.shutdown()
        self.handles.clear()

    # simlint: ok[CHARGE] deliberately uncharged: harness reset between runs
    def restart_cold(self) -> None:
        """Drop all cached state without charging (between experiments)."""
        self.system.restart_cold()
        self.handles.clear()

    # simlint: ok[CHARGE] zeroing the meters is the one thing that must not meter itself
    def reset_meters(self) -> None:
        """Zero the clock and counters (start of a measured run)."""
        self.clock.reset()
        self.counters.reset()
