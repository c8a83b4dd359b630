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

_CPU = Bucket.CPU
_HANDLE = Bucket.HANDLE


#: Attribute kinds O2 materializes as separate literals with handles of
#: their own (Section 4.4), mapped to whether the literal is fixed-size
#: (the key of ``HandleTable._literal_s``).
_LITERAL_FIXED_SIZE = {AttrKind.STRING: True, AttrKind.REF_SET: False}


class ObjectManager:
    """Loads objects as handles and decodes their attributes."""

    def __init__(self, schema: Schema, disk: DiskManager, handles: HandleTable):
        self.schema = schema
        self.disk = disk
        self.handles = handles
        self._files: dict[int, StorageFile] = {}
        #: class id -> the class's codec.
        self._codecs: dict[int, RecordCodec] = {}
        #: class id -> attribute name -> (compiled reader, literal charge
        #: or ``None``): everything ``get_attr`` needs, resolved once per
        #: class.  Never invalidated: a class never changes once defined.
        self._attr_tables: dict[
            int, dict[str, tuple[Reader, bool | None]]
        ] = {}
        #: ``record[CLASS_KEY]`` (the class id's two bytes, a handful of
        #: keys per database) -> the record's class; :meth:`class_of`
        #: fills it.  Never invalidated, by the argument above.
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
        key = class_def.class_id
        try:
            return self._codecs[key]
        except KeyError:
            codec = self._codecs[key] = RecordCodec(class_def)
            return codec

    # -- loading ----------------------------------------------------------

    def read_record(self, rid: Rid) -> tuple[bytes, ClassDef]:
        """Raw record + exact class, through the page caches, no
        handle."""
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
        """The exact class of ``record``, resolved through the schema
        once per class id.  A record too short to carry a header or an
        unknown class id raises (``struct.error`` /
        :class:`~repro.errors.SchemaError`) and is not remembered."""
        key = record[CLASS_KEY]
        try:
            return self._classes[key]
        except KeyError:
            pass  # resolved outside the handler: its errors stand alone
        class_def = self._classes[key] = self.schema.by_id(
            ObjectHeader.peek_class_id(record)
        )
        return class_def

    def borrow(self, rid: Rid) -> Handle:
        """Get a referenced handle for the object at ``rid`` ("get Handle
        h" in the paper's Figure 8 pseudo-code): the handle ``rid``
        already has, live or parked -- a parked one revives where it
        stands -- or, on a miss, a fresh one around the record
        :meth:`read_record` reads.  Under an installed snapshot view
        (:attr:`read_view`) the view answers instead, and the handle
        represents the snapshot-visible *version* of the object, which
        may differ from the live record; the view borrows a visible live
        record through this same bracket, standing aside for the call.

        The handle is its own bracket: ``with om.borrow(rid) as
        handle:`` is Figure 8's get-handle/unreference pair, the
        unreference guaranteed, so a predicate or projection raising
        mid-bracket (transaction abort, injected crash) cannot leak the
        handle and pin its page frame.  Outside a ``with`` the caller
        owes the :meth:`unref`."""
        if self.read_view is not None:
            return self.read_view.load(self, rid)
        table = self.handles
        handles = table._handles
        handle = handles.get(rid)
        if handle is None:
            record, class_def = self.read_record(rid)
            handle = handles[rid] = Handle(rid, record, class_def, table)
            table.counters.handles_allocated += 1
            table._buckets[_HANDLE] += table._alloc_s
            return handle
        if not handle.refcount:
            table._parked_count -= 1
        handle.refcount += 1
        table._buckets[_HANDLE] += table._touch_s
        return handle

    #: The bracket-less spelling, for a caller that keeps the handle
    #: (Figure 4's hash table of handles) and calls :meth:`unref` itself.
    load = borrow

    def unref(self, handle: Handle) -> None:
        """"unreference h" in Figure 8: the bracket's way out."""
        handle.__exit__(None, None, None)

    # -- attribute access -------------------------------------------------------

    def get_attr(self, handle: Handle, name: str) -> object:
        """Decode one attribute ("get_att(h, name)" in Figure 8).

        Charges the decode CPU and, for string/complex-value attributes,
        the get + unreference pair of the literal's handle, each at the
        price the handle table's ``mode`` setter worked out: FULL pays
        the full pair, COMPACT_LITERALS the compact pair, INLINE_TUPLES
        nothing for a *fixed-size* literal (embedded in its owner's
        tuple -- Section 4.4) and the compact pair for a variable-size
        one, BULK the amortized full pair.  A name the class lacks
        raises its :class:`~repro.errors.SchemaError`.
        """
        handles = self.handles
        buckets = handles._buckets
        buckets[_CPU] += handles._decode_s
        class_def = handle.class_def
        key = class_def.class_id
        try:
            table = self._attr_tables[key]
        except KeyError:
            table = self._attr_tables[key] = self._compile_attr_table(class_def)
        try:
            read, literal_fixed_size = table[name]
        except KeyError:
            class_def.attribute(name)  # raises: the table holds every name
            raise
        if literal_fixed_size is not None:
            seconds = handles._literal_s[literal_fixed_size]
            if seconds is not None:
                counters = handles.counters
                counters.handles_allocated += 1
                counters.handles_unreferenced += 1
                buckets[_HANDLE] += seconds
        return read(handle.record)

    def _compile_attr_table(
        self, class_def: ClassDef
    ) -> dict[str, tuple[Reader, bool | None]]:
        readers = self.codec(class_def).readers
        return {
            attr.name: (readers[attr.name], _LITERAL_FIXED_SIZE.get(attr.kind))
            for attr in class_def.attributes
        }

    def get_attr_at(self, rid: Rid, name: str) -> object:
        """Convenience: one bracket around one attribute read."""
        with self.borrow(rid) as handle:
            return self.get_attr(handle, name)

    # -- mutation ------------------------------------------------------

    def update_scalar(self, rid: Rid, name: str, value: object) -> Rid:
        """Rewrite one scalar attribute in place; returns the (unchanged)
        rid where the record lives."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        new_record = self.codec(self.class_of(record)).update_scalar(
            record, name, value
        )
        return self._write_back(sfile, rid, actual, record, new_record)

    def update_set(self, rid: Rid, name: str, value: InlineSet | OverflowSet) -> Rid:
        """Rewrite one set attribute; the record may grow and move."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        new_record = self.codec(self.class_of(record)).update_set(
            record, name, value
        )
        return self._write_back(sfile, rid, actual, record, new_record)

    def rewrite_header(self, rid: Rid, header: ObjectHeader) -> Rid:
        """Replace an object's header (index-slot growth); the record
        grows when slots are added, possibly moving the object — the
        Section 3.2 reallocation."""
        sfile = self.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        old_size = ObjectHeader.peek_size(record)
        new_record = header.encode() + record[old_size:]
        return self._write_back(sfile, rid, actual, record, new_record)

    def _write_back(
        self,
        sfile: StorageFile,
        rid: Rid,
        actual: Rid,
        record: bytes,
        new_record: bytes,
    ) -> Rid:
        """The second half of every mutation: ``record``, which
        ``read_resolving(rid)`` found at ``actual``, becomes
        ``new_record`` -- in the handle table first, then on its page.
        Returns the rid where the record now lives.

        Any cached handle takes the new record, under the address the
        caller used and under the one the record lives at: a live one,
        and a parked one too, which :meth:`borrow` revives without
        reloading.  No rewrite changes a record's class,
        so the handle's class stands.  A bulk load holds no handle at
        all, and probes nothing."""
        table = self.handles._handles
        if table:
            for key in (rid,) if actual == rid else (rid, actual):
                handle = table.get(key)
                if handle is not None:
                    handle.record = new_record
        return sfile.replace(actual, record, new_record)
