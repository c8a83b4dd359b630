"""The object manager: records in, handles out.

Sits between the storage/buffer substrate and everything above: loading
an object means fetching its record through the page caches, then
obtaining a handle from the handle table.  Attribute access decodes from
the record at fixed offsets and pays the literal-handle tax O2 pays for
strings and complex values (Section 4.4).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.buffer import ClientServerSystem
from repro.errors import (
    DanglingReferenceError,
    RecordNotFoundError,
    RecordNotVisibleError,
)
from repro.objects.codec import InlineSet, OverflowSet, Reader, RecordCodec
from repro.objects.handle import Handle, HandleTable
from repro.objects.header import (
    CLASS_KEY,
    FIXED_SIZE,
    SLOT_BYTES,
    SLOT_COUNT_BYTE,
    ObjectHeader,
)
from repro.objects.model import AttrKind, ClassDef, Schema
from repro.simtime import Bucket
from repro.storage.file import StorageFile
from repro.storage.rid import Rid

_CPU = Bucket.CPU
_HANDLE = Bucket.HANDLE
_RESULT = Bucket.RESULT


#: Attribute kinds O2 materializes as separate literals with handles of
#: their own (Section 4.4), mapped to whether the literal is fixed-size
#: (the key of ``HandleTable._literal_s``).
_LITERAL_FIXED_SIZE = {AttrKind.STRING: True, AttrKind.REF_SET: False}


class ObjectManager:
    """Loads objects as handles and decodes their attributes."""

    def __init__(
        self, schema: Schema, system: ClientServerSystem, handles: HandleTable
    ):
        self.schema = schema
        #: The pager of every file :meth:`new_file` builds.
        self.system = system
        self.disk = system.disk
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
        #: :class:`~repro.txn.mvcc.SnapshotView` here: every read-path
        #: ``load``/``borrow`` resolves rids through the version chains,
        #: and :meth:`fetch` asks it which rids read the live record.
        #: ``None`` (the default, and always under 2PL) means reads see
        #: the live record, byte-for-byte the pre-MVCC behavior.
        self.read_view = None
        #: Duck-typed like :attr:`read_view`: a weak reference to the
        #: query service most recently opened on this database, whose
        #: ``sessions`` each have a handle table of their own (see
        #: :meth:`_publish`).  ``None`` while no service was opened.
        self.service = None

    # -- registry ---------------------------------------------------------

    def new_file(self, fill_factor: float) -> StorageFile:
        """A new file, registered, paging through :attr:`system`."""
        sfile = StorageFile(self.disk, self.system, fill_factor=fill_factor)
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
        stands -- or, on a miss, a new one around the record
        :meth:`read_record` reads: a spare the last restart left
        (``HandleTable.clear``) re-initialised, else a fresh one.  Under
        an installed snapshot view (:attr:`read_view`) the view answers
        instead, and the handle represents the snapshot-visible
        *version* of the object, which may differ from the live record;
        the view borrows a visible live record through this same
        bracket, standing aside for the call.

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
            spare = table._spare
            if spare:
                handle = handles[rid] = spare.pop()
                handle.rid = rid
                handle.record = record
                handle.class_def = class_def
                handle.refcount = 1
            else:
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

    def fetch(
        self,
        rids: Iterable[Rid],
        row_fn: Callable[["ObjectManager", Handle], object],
        out: list,
        room: int = -1,
        skip: object = None,
        row_s: float = 0.0,
    ) -> int:
        """Figure 8's loop body over a batch: for each of ``rids`` get
        the handle, apply ``row_fn(self, handle)``, unreference it, and
        append the row to ``out`` unless it is ``skip``, charging
        ``row_s`` of result time per appended row.  Stops once ``room``
        rows are appended (a negative ``room`` never fills), leaving
        the rest of an iterator unread; returns the room left.  An
        object with no version visible at the reader's snapshot (created
        after it began) is passed over, not raised, whatever reads it: a
        projection, an aggregate, an exists filter or a tree join.

        The bracket is :meth:`borrow` plus ``Handle.__exit__``, charge
        for charge, on the handle table's state read once per call.  It
        runs here by hand for a handle hit, and for a miss whose page is
        resident in the attached client tier and whose slot holds the
        record itself: the client hit, the class lookup and the
        spare-or-new handle, each in the order :meth:`read_record` and
        :meth:`borrow` make them (the slot probe has no effect, so it
        runs first).  Under a snapshot view (:attr:`read_view`) the
        view's ``live(rid)`` decides first: a rid whose live record is
        the visible one takes the same hit and miss, which cannot yield,
        so no writer can slip in between the decision and the read.  A
        miss whose page would fault -- the fault may hand the baton
        over -- a forwarded or missing slot, and a rid the snapshot
        reads as a version or cannot see go through ``with
        self.borrow(rid)``, where the view decides again after a fault;
        so does a rid in an unregistered file, whose page is never
        resident.  The unreference runs whatever ``row_fn`` raises.  A
        session resumes with its own table, client tier and view in
        place, so the state read here stands across a hand-off."""
        table = self.handles
        handles = table._handles
        get = handles.get
        move_to_end = handles.move_to_end
        counters = table.counters
        buckets = table._buckets
        touch_s = table._touch_s
        alloc_s = table._alloc_s
        unref_s = table._unref_s
        capacity = table.delayed_free_capacity
        spare = table._spare
        pages = self.system.client_cache._pages
        classes = self._classes
        view = self.read_view
        for rid in rids:
            handle = None
            if view is None or view.live(rid):
                handle = get(rid)
                if handle is not None:
                    refcount = handle.refcount
                    if not refcount:
                        table._parked_count -= 1
                    handle.refcount = refcount + 1
                    buckets[_HANDLE] += touch_s
                else:
                    # read_record, inline while the page is resident.
                    key = rid[:2]
                    record = None
                    if key in pages:
                        try:
                            record = pages[key].resolve(rid[2])
                        except RecordNotFoundError:
                            pass  # borrow makes the hit, then raises
                    # A forwarding stub or a missing slot is borrow's,
                    # hop and error alike.
                    if record.__class__ is bytes:
                        # get_page's client hit (on the database's
                        # counters, which every handle table shares).
                        pages.move_to_end(key)
                        counters.client_hits += 1
                        class_key = record[CLASS_KEY]
                        if class_key in classes:
                            class_def = classes[class_key]
                        else:
                            class_def = self.class_of(record)
                        # borrow's miss, from here on.
                        if spare:
                            handle = handles[rid] = spare.pop()
                            handle.rid = rid
                            handle.record = record
                            handle.class_def = class_def
                            handle.refcount = 1
                        else:
                            handle = handles[rid] = Handle(
                                rid, record, class_def, table
                            )
                        counters.handles_allocated += 1
                        buckets[_HANDLE] += alloc_s
            try:
                if handle is not None:
                    try:
                        row = row_fn(self, handle)
                    finally:
                        # Handle.__exit__, on a handle of this table
                        # that is never a version handle.
                        handle.refcount = refcount = handle.refcount - 1
                        counters.handles_unreferenced += 1
                        buckets[_HANDLE] += unref_s
                        if not refcount:
                            if handle.published is not None:
                                handle.record = handle.published
                                handle.published = None
                            if not capacity:
                                del handles[rid]
                            else:
                                move_to_end(rid)
                                table._parked_count += 1
                                while table._parked_count > capacity:
                                    old, oldest = handles.popitem(last=False)
                                    if oldest.refcount:
                                        handles[old] = oldest
                                    else:
                                        table._parked_count -= 1
                else:
                    with self.borrow(rid) as borrowed:
                        row = row_fn(self, borrowed)
            except RecordNotVisibleError:
                continue
            if row is not skip:
                if row_s:
                    buckets[_RESULT] += row_s
                out.append(row)
                room -= 1
                if not room:
                    break
        return room

    def stamp_index(
        self,
        rids: Iterable[Rid],
        index_id: int,
        key_attr: str,
        pairs: list,
    ) -> tuple[int, int]:
        """The member pass of ``IndexManager.create_index`` on a
        populated collection: for each of ``rids`` read the record,
        decode ``key_attr``, add ``index_id`` to the header -- growing
        it when no slot is free, which may move the record (Section
        3.2) -- and append ``(key, rid)`` to ``pairs``, ``rid`` being
        where the record now lives.  Returns ``(headers rewritten,
        headers grown)``.  ``rids`` is read one at a time, as the
        member pass reads its collection's chunks.

        Each member costs what :meth:`read_record`, a re-read of the
        record and :meth:`_write_back` cost, charge for charge: three
        accesses to the record's page, the last two made only when the
        header changes.  While the handle table is empty (a load holds
        no handle) and the slot holds the record, they run here on one
        slot probe: the three client hits are one ``move_to_end``
        (three accesses in a row to one key leave the LRU order one
        leaves) and ``client_hits`` counted per access, a first access
        that would fault goes through ``get_page`` and the other two
        are then hits, and the record is replaced in place by
        ``Page.replace`` or moved by ``StorageFile._move`` where
        ``StorageFile.replace`` would move it.  A forwarded or missing
        slot, a rid in an unregistered file, and any member while a
        handle is cached take those three calls unchanged."""
        files = self._files
        classes = self._classes
        handles = self.handles._handles
        system = self.system
        client = system.client_cache._pages
        counters = self.disk.counters
        # class id -> the key's reader, checked once per class as
        # RecordCodec.decode_attr checks it per call
        readers: dict[int, Reader] = {}
        rewritten = grown = 0
        for rid in rids:
            file_id, page_no, slot = rid
            page = None
            sfile = files[file_id] if file_id in files else None
            if sfile is not None and not handles:
                key = (file_id, page_no)
                resident = key in client
                if resident:
                    page = client[key]
                elif 0 <= page_no < len(sfile._pages):
                    page = sfile._pages[page_no]  # what a fault reads
                if page is not None:
                    try:
                        record = page.resolve(slot)
                    except RecordNotFoundError:
                        record = None
                    if record.__class__ is not bytes:
                        page = None  # the hop or the error is read_record's
            if page is None:
                record, class_def = self.read_record(rid)
            else:
                # read_record's access, then its class lookup
                if resident:
                    client.move_to_end(key)
                    counters.client_hits += 1
                else:
                    page = system.get_page(file_id, page_no)
                class_key = record[CLASS_KEY]
                if class_key in classes:
                    class_def = classes[class_key]
                else:
                    class_def = self.class_of(record)
            try:
                read = readers[class_def.class_id]
            except KeyError:
                class_def.attribute(key_attr)  # SchemaError for an unknown name
                read = readers[class_def.class_id] = (
                    self.codec(class_def).readers[key_attr]
                )
            value = read(record)
            header = ObjectHeader.decode(record)
            if index_id not in header.index_ids:
                if header.add_index(index_id):
                    grown += 1
                size = FIXED_SIZE + SLOT_BYTES * record[SLOT_COUNT_BYTE]
                if page is None:
                    sfile = self.file_for(rid)
                    record, actual = sfile.read_resolving(rid)
                    rid = self._write_back(
                        sfile, rid, actual, record,
                        header.encode() + record[size:],
                    )
                else:
                    # the re-read's and StorageFile.replace's hits on
                    # the page the first access left most recent
                    counters.client_hits += 2
                    new_record = header.encode() + record[size:]
                    if not page.replace(slot, record, new_record):
                        rid = sfile._move(rid, page, new_record)
                rewritten += 1
            pairs.append((value, rid))
        return rewritten, grown

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
                    handle.published = None  # this write supersedes it
        return sfile.replace(actual, record, new_record)

    def _publish(self, rids: Iterable[Rid]) -> None:
        """A committed in-place update reaches every client: the handle
        of each of ``rids`` in any session's table takes the record the
        rid holds now, so :meth:`borrow` revives it with the committed
        value.  The writer's own table took the new record at the write
        (:meth:`_write_back`); the other tables wait for the commit, so
        an aborted write never reaches them.  A live handle keeps its
        record while its holder reads what it borrowed (under SI, its
        snapshot's version) and takes the committed one as
        ``published`` when it parks (``Handle.__exit__``,
        :meth:`fetch`).

        Called by the committing transaction.  Free, like
        ``HandleTable.forget_page``: refreshing a cached copy models no
        O2 cost, so the record is read off the page uncharged."""
        service = self.service() if self.service is not None else None
        if service is None:
            return
        tables = [session.handles._handles for session in service.sessions]
        for rid in rids:
            record = None
            for handles in tables:
                handle = handles.get(rid)
                if handle is None:
                    continue
                if record is None:
                    found = self.disk.peek_page(rid[0], rid[1]).resolve(rid[2])
                    if found.__class__ is not bytes:  # forwarded
                        found = self.disk.peek_page(
                            found[0], found[1]
                        ).resolve(found[2])
                    record = found
                if handle.refcount:
                    handle.published = record
                else:
                    handle.record = record
