"""The object manager: records in, handles out.

Sits between the storage/buffer substrate and everything above: loading
an object means fetching its record through the page caches, then
obtaining a handle from the handle table.  Attribute access decodes from
the record at fixed offsets and pays the literal-handle tax O2 pays for
strings and complex values (Section 4.4).
"""

from __future__ import annotations

from repro.errors import DanglingReferenceError
from repro.objects.codec import InlineSet, OverflowSet, Reader, RecordCodec
from repro.objects.handle import Handle, HandleTable
from repro.objects.header import CLASS_KEY, ObjectHeader
from repro.objects.model import AttrKind, ClassDef, Schema
from repro.simtime import Bucket
from repro.storage.disk import DiskManager
from repro.storage.file import StorageFile
from repro.storage.rid import Rid
from repro.units import US_PER_S


#: Attribute kinds O2 materializes as separate literals with handles of
#: their own (Section 4.4), mapped to ``charge_literal``'s ``fixed_size``.
_LITERAL_FIXED_SIZE = {AttrKind.STRING: True, AttrKind.REF_SET: False}


class ObjectManager:
    """Loads objects as handles and decodes their attributes."""

    def __init__(self, schema: Schema, disk: DiskManager, handles: HandleTable):
        self.schema = schema
        self.disk = disk
        self.handles = handles
        self._files: dict[int, StorageFile] = {}
        self._codecs: dict[tuple[int, int], RecordCodec] = {}
        #: ``(class_id, schema_version)`` -> attribute name -> (compiled
        #: reader, literal charge or ``None``): everything ``get_attr``
        #: needs, resolved once per class version.  Never invalidated: a
        #: class version is immutable and ``Schema.evolve`` makes a new
        #: key.  Names a version lacks are *not* entered, so an
        #: attribute evolved in later is seen by the very next read.
        self._attr_tables: dict[
            tuple[int, int], dict[str, tuple[Reader, bool | None]]
        ] = {}
        #: ``record[CLASS_KEY]`` (class id, index-slot count, schema
        #: version: one slice, a handful of keys per database) -> the
        #: record's class at that version; :meth:`class_of` fills it.  Never
        #: invalidated, by the argument above: ``Schema``'s version
        #: history is append-only and ``evolve`` makes a new version
        #: byte, hence a new key.
        self._classes: dict[bytes, ClassDef] = {}
        #: Duck-typed MVCC hook (``objects`` sits below ``txn`` in the
        #: layer order, so the type is never imported): while a
        #: snapshot-isolation transaction is the active session, the
        #: transaction manager installs its
        #: :class:`~repro.txn.mvcc.SnapshotView` here and every read-path
        #: ``load``/``borrow`` resolves rids through the version chains.
        #: ``None`` (the default, and always under 2PL) means reads see
        #: the live record, byte-for-byte the pre-MVCC behavior.
        self.read_view = None

    # -- registry ---------------------------------------------------------

    def register_file(self, sfile: StorageFile) -> StorageFile:
        self._files[sfile.file_id] = sfile
        return sfile

    def file_for(self, rid: Rid) -> StorageFile:
        try:
            return self._files[rid.file_id]
        except KeyError:
            raise DanglingReferenceError(
                f"rid {rid} points into an unregistered file"
            ) from None

    def codec(self, class_def: ClassDef) -> RecordCodec:
        key = (class_def.class_id, class_def.schema_version)
        try:
            return self._codecs[key]
        except KeyError:
            codec = self._codecs[key] = RecordCodec(class_def)
            return codec

    # -- loading ----------------------------------------------------------

    def read_record(self, rid: Rid) -> tuple[bytes, ClassDef]:
        """Raw record + exact class *at the record's schema version*,
        through the page caches, no handle."""
        try:
            sfile = self._files[rid[0]]
        except KeyError:
            sfile = self.file_for(rid)  # raises
        record, __ = sfile.read_resolving(rid)
        try:
            return record, self._classes[record[CLASS_KEY]]
        except KeyError:
            pass  # first record with this header, or not a record at all
        return record, self.class_of(record)

    def class_of(self, record: bytes) -> ClassDef:
        """The exact class of ``record`` at the schema version it was
        written under, resolved through the schema once per distinct
        header.  A record too short to carry a header, an unknown class
        id or version raises (``struct.error`` / ``IndexError`` /
        :class:`~repro.errors.SchemaError`) and is not remembered."""
        key = record[CLASS_KEY]
        try:
            return self._classes[key]
        except KeyError:
            pass  # resolved outside the handler: its errors stand alone
        class_def = self._classes[key] = self.schema.class_version(
            ObjectHeader.peek_class_id(record),
            ObjectHeader.peek_schema_version(record),
        )
        return class_def

    def borrow(self, rid: Rid) -> Handle:
        """Get a referenced handle for the object at ``rid`` ("get Handle
        h" in the paper's Figure 8 pseudo-code).  Under an installed
        snapshot view the handle represents the snapshot-visible
        *version* of the object, which may differ from the live record.

        The handle is its own bracket: ``with om.borrow(rid) as
        handle:`` is Figure 8's get-handle/unreference pair, the
        unreference guaranteed, so a predicate or projection raising
        mid-bracket (transaction abort, injected crash) cannot leak the
        handle and pin its page frame.  Outside a ``with`` the caller
        owes the :meth:`unref`."""
        if self.read_view is not None:
            return self.read_view.load(self, rid)
        handle = self.handles.reference(rid)
        if handle is None:
            handle = self.handles.allocate(rid, *self.read_record(rid))
        return handle

    #: The bracket-less spelling, for a caller that keeps the handle
    #: (Figure 4's hash table of handles) and calls :meth:`unref` itself.
    load = borrow

    def unref(self, handle: Handle) -> None:
        """"unreference h" in Figure 8."""
        self.handles.unreference(handle)

    # -- attribute access -------------------------------------------------------

    def get_attr(self, handle: Handle, name: str) -> object:
        """Decode one attribute ("get_att(h, name)" in Figure 8).

        Charges the decode CPU and, for string/complex-value attributes,
        the literal-handle traffic of the current handle mode.  For an
        attribute added by schema evolution *after* this record was
        written, the attribute's declared default is returned.
        """
        handles = self.handles
        handles.clock.buckets[Bucket.CPU] += (
            handles.params.attr_decode_us / US_PER_S
        )
        class_def = handle.class_def
        key = (class_def.class_id, class_def.schema_version)
        try:
            table = self._attr_tables[key]
        except KeyError:
            table = self._attr_tables[key] = self._compile_attr_table(class_def)
        try:
            read, literal_fixed_size = table[name]
        except KeyError:
            # Not in the record's version: the latest one's default, or
            # its SchemaError when no version has the name.
            return self.schema.by_id(class_def.class_id).attribute(name).default
        if literal_fixed_size is not None:
            handles.charge_literal(literal_fixed_size)
        return read(handle.record)

    def _compile_attr_table(
        self, class_def: ClassDef
    ) -> dict[str, tuple[Reader, bool | None]]:
        readers = self.codec(class_def).readers
        return {
            attr.name: (readers[attr.name], _LITERAL_FIXED_SIZE.get(attr.kind))
            for attr in class_def.all_attributes()
        }

    def get_attr_at(self, rid: Rid, name: str) -> object:
        """Convenience: one bracket around one attribute read."""
        with self.borrow(rid) as handle:
            return self.get_attr(handle, name)

    def header_of(self, handle: Handle) -> ObjectHeader:
        return ObjectHeader.decode(handle.record)

    # -- mutation ------------------------------------------------------

    def update_scalar(self, rid: Rid, name: str, value: object) -> Rid:
        """Rewrite one scalar attribute in place; returns the (unchanged)
        rid where the record lives."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        class_def = self.class_of(record)
        new_record = self.codec(class_def).update_scalar(record, name, value)
        return self._write_back(sfile, rid, actual, record, new_record, class_def)

    def update_set(self, rid: Rid, name: str, value: InlineSet | OverflowSet) -> Rid:
        """Rewrite one set attribute; the record may grow and move."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        class_def = self.class_of(record)
        new_record = self.codec(class_def).update_set(record, name, value)
        return self._write_back(sfile, rid, actual, record, new_record, class_def)

    def upgrade_record(self, rid: Rid) -> Rid:
        """Rewrite an object at its class's latest schema version.

        New attributes get their declared defaults.  The record grows,
        so it may move — like the post-hoc indexing of Section 3.2,
        lazy upgrades preserve clustering best when batched with a
        reload.  Returns the rid where the record now lives.
        """
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        old_class = self.class_of(record)
        latest = self.schema.by_id(old_class.class_id)
        if latest.schema_version == old_class.schema_version:
            return actual
        values = self.codec(old_class).decode(record)
        header = ObjectHeader.decode(record)
        header.schema_version = latest.schema_version
        new_record = self.codec(latest).encode(header, values)
        self.handles.clock.charge_us(
            Bucket.LOAD, self.handles.params.object_create_us
        )
        return self._write_back(sfile, rid, actual, record, new_record, latest)

    def rewrite_header(self, rid: Rid, header: ObjectHeader) -> Rid:
        """Replace an object's header (index-slot growth); the record
        grows when slots are added, possibly moving the object — the
        Section 3.2 reallocation."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        old_size = ObjectHeader.peek_size(record)
        new_record = header.encode() + record[old_size:]
        return self._write_back(
            sfile, rid, actual, record, new_record, self.class_of(new_record)
        )

    def _write_back(
        self,
        sfile: StorageFile,
        rid: Rid,
        actual: Rid,
        record: bytes,
        new_record: bytes,
        class_def: ClassDef,
    ) -> Rid:
        """The second half of every mutation: ``record``, which
        ``read_resolving(rid)`` found at ``actual``, becomes
        ``new_record`` -- in the handle table first, then on its page.
        Returns the rid where the record now lives.

        Any cached handle's record *and class* are kept in step with the
        write, under the address the caller used and under the one the
        record lives at.  A live handle takes both; a parked one (which
        :meth:`HandleTable.reference` revives without reloading) takes
        the record, or is dropped when the write changed the layout
        under it (``upgrade_record``; restoring an older snapshot).  A
        bulk load holds no handle at all, and probes nothing."""
        handles = self.handles
        if handles._live or handles._parked:
            for key in (rid,) if actual == rid else (rid, actual):
                live = handles._live.get(key)
                if live is not None:
                    live.record = new_record
                    live.class_def = class_def
                parked = handles._parked.get(key)
                if parked is not None:
                    if parked.class_def is class_def:
                        parked.record = new_record
                    else:
                        del handles._parked[key]
        return sfile.replace(actual, record, new_record)
