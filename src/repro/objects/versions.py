"""Object versioning.

"A pointer to some structure representing the version to which the
object belongs" is one of the handle fields the paper blames for O2's
handle weight (Section 4.4), and versioning is among the features a
"less functionality" O2 could drop.  This module provides the feature
itself: snapshot an object's state, list its versions, read any of them,
and restore one — so the ablation between a versioning and a
versioning-free system is a real choice, not a stub.

Version snapshots are full record copies in a dedicated file (a simple
and honest model of O2's version records); the per-object version chain
is catalog state — and the catalog is itself *persistent*: every
snapshot also appends a catalog record to ``__version_catalog__``, and
the in-memory chain dict is nothing but a lazily rebuilt cache over it.
A crash or restart therefore loses at most the catalog records that
never reached disk (the same durable-prefix rule every unlogged write
obeys); chains whose records were flushed are rebuilt on first access,
and :func:`repro.recovery.aries.restart` calls :meth:`VersionManager.reload`
explicitly.

(The *MVCC* version chains of :mod:`repro.txn.mvcc` are a different,
deliberately volatile structure: those cache committed pre-images for
snapshot readers and are discarded at restart.)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ObjectError
from repro.objects.database import Database
from repro.objects.header import FLAG_VERSIONED, ObjectHeader
from repro.simtime import Bucket
from repro.storage.rid import Rid

_CPU = Bucket.CPU
_LOAD = Bucket.LOAD

#: File holding version snapshot records.
VERSIONS_FILE = "__versions__"
#: File holding the persistent version catalog (one record per snapshot:
#: owner rid, version number, snapshot rid, label).
VERSION_CATALOG_FILE = "__version_catalog__"

#: Catalog record header: owner (file, page, slot), version_no,
#: snapshot (file, page, slot), label byte length.  Label UTF-8 follows.
_CATALOG_HEADER = struct.Struct("<7iH")


@dataclass(frozen=True)
class VersionInfo:
    """One snapshot of one object."""

    version_no: int
    label: str
    snapshot_rid: Rid


def _encode_catalog(rid: Rid, info: VersionInfo) -> bytes:
    label = info.label.encode("utf-8")
    return (
        _CATALOG_HEADER.pack(
            rid.file_id,
            rid.page_no,
            rid.slot,
            info.version_no,
            info.snapshot_rid.file_id,
            info.snapshot_rid.page_no,
            info.snapshot_rid.slot,
            len(label),
        )
        + label
    )


def _decode_catalog(record: bytes) -> tuple[Rid, VersionInfo]:
    (
        file_id, page_no, slot, version_no,
        snap_file, snap_page, snap_slot, label_len,
    ) = _CATALOG_HEADER.unpack_from(record, 0)
    label = record[
        _CATALOG_HEADER.size : _CATALOG_HEADER.size + label_len
    ].decode("utf-8")
    return (
        Rid(file_id, page_no, slot),
        VersionInfo(version_no, label, Rid(snap_file, snap_page, snap_slot)),
    )


class VersionManager:
    """Snapshot / inspect / restore object versions for one database."""

    def __init__(self, db: Database):
        self.db = db
        self._chains: dict[Rid, list[VersionInfo]] = {}
        self._loaded = False
        # Register for restart: recovery calls reload() on the attached
        # manager so chains are rebuilt from the durable catalog.
        db.version_manager = self

    def _file(self):
        if not self.db.has_file(VERSIONS_FILE):
            self.db.create_file(VERSIONS_FILE)
        return self.db.file(VERSIONS_FILE)

    def _catalog_file(self):
        if not self.db.has_file(VERSION_CATALOG_FILE):
            self.db.create_file(VERSION_CATALOG_FILE)
        return self.db.file(VERSION_CATALOG_FILE)

    # -- operations ------------------------------------------------------

    def snapshot(self, rid: Rid, label: str = "") -> VersionInfo:
        """Persist the object's current state as a new version (snapshot
        record + catalog record; both are real on-page records, so their
        durability follows the ordinary flushed-page rule)."""
        self._ensure_loaded()
        record, __class_def = self.db.manager.read_record(rid)
        snapshot_rid = self._file().insert(record)
        self.db.clock.charge_us(_LOAD, self.db.params.object_create_us)
        chain = self._chains.setdefault(rid, [])
        info = VersionInfo(len(chain) + 1, label, snapshot_rid)
        self._catalog_file().insert(_encode_catalog(rid, info))
        chain.append(info)
        if len(chain) == 1:
            self._mark_versioned(rid)
        return info

    def versions(self, rid: Rid) -> list[VersionInfo]:
        """All snapshots of ``rid``, oldest first."""
        self._ensure_loaded()
        return list(self._chains.get(rid, []))

    def read_version(self, rid: Rid, version_no: int) -> dict[str, object]:
        """Decode one snapshot's attribute values."""
        info = self._find(rid, version_no)
        record = self._file().read(info.snapshot_rid)
        manager = self.db.manager
        return manager.codec(manager.class_of(record)).decode(record)

    def restore(self, rid: Rid, version_no: int) -> Rid:
        """Overwrite the live object with a snapshot's state.

        The restored record keeps its versioned flag; restoring does not
        erase later snapshots (they remain readable history).
        """
        info = self._find(rid, version_no)
        snapshot = self._file().read(info.snapshot_rid)
        manager = self.db.manager
        sfile = manager.file_for(rid)
        record, actual = sfile.read_resolving(rid)
        return manager._write_back(
            sfile, rid, actual, record, snapshot, manager.class_of(snapshot)
        )

    # -- persistence -----------------------------------------------------

    # simlint: ok[CHARGE] cache invalidation is free; the rebuild scan pays
    def reload(self) -> None:
        """Drop the in-memory chain cache; the next access rebuilds it
        from the durable catalog.  Called by restart — this is the fix
        for chains silently vanishing across ``crash()``/``restart()``."""
        self._chains.clear()
        self._loaded = False

    def _ensure_loaded(self) -> None:
        """Rebuild the chain cache by scanning the catalog file (charged
        page reads through the normal pager path, plus the per-entry
        decode CPU)."""
        if self._loaded:
            return
        self._loaded = True
        if not self.db.has_file(VERSION_CATALOG_FILE):
            return
        entries: list[tuple[Rid, VersionInfo]] = []
        for __, record in self._catalog_file().scan():
            self.db.clock.charge_us(
                _CPU, self.db.params.attr_decode_us
            )
            entries.append(_decode_catalog(record))
        entries.sort(key=lambda e: (e[0], e[1].version_no))
        for rid, info in entries:
            self._chains.setdefault(rid, []).append(info)

    # -- internals ----------------------------------------------------------

    def _find(self, rid: Rid, version_no: int) -> VersionInfo:
        self._ensure_loaded()
        chain = self._chains.get(rid)
        if not chain or not 1 <= version_no <= len(chain):
            raise ObjectError(
                f"object {rid} has {len(chain or [])} versions, "
                f"no version {version_no}"
            )
        return chain[version_no - 1]

    def _mark_versioned(self, rid: Rid) -> None:
        record, __ = self.db.manager.read_record(rid)
        header = ObjectHeader.decode(record)
        header.flags |= FLAG_VERSIONED
        self.db.manager.rewrite_header(rid, header)
