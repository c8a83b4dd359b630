"""The load path's two kernels against the per-object path they replace.

``Transaction.create_objects`` hands a commit batch to
``Database.create_objects``, which creates each object with the state it
reads bound once and appends to a resident tail page inline.
``ObjectManager.stamp_index`` runs ``IndexManager.create_index``'s member
pass, a resident member's three page accesses made on one slot probe.
Their contract is that nothing simulated can tell: a load run through
the kernels and one run through a ``Transaction.create_object`` loop and
``read_record`` + header rewrite leave the same bytes on disk, the same
meters and every bucket bit for bit, the same LRU order of both cache
tiers after every batch and every member pass, the same log records and
locks, the same rids and the same ``LoadReport`` -- under every
clustering, index first and after, logged and not, with the default
client tier, with a one-page tier (so that the tail faults, a member's
first access faults and a new page is allocated through the fallback)
and with a small tier that evicts mid-batch.  The error paths hold the
same: a record larger than a page and an object budget smaller than
the batch; a transaction that logs page images is refused the batch.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import load_derby
from repro.cluster import loader
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.errors import (
    RecordTooLargeError,
    TransactionMemoryError,
    TransactionStateError,
)
from repro.index import IndexManager
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.objects.header import ObjectHeader
from repro.objects.manager import ObjectManager
from repro.simtime import Bucket, meter_values
from repro.txn import TransactionManager
from repro.txn.manager import Transaction
from repro.units import PAGE_SIZE

from .test_disk_format_pins import disk_fingerprint


def create_each(txn, steps) -> int:
    """``Transaction.create_objects`` spelled as the loader's loop before
    it: one ``create_object`` per step, then the rid stored and
    appended."""
    created = 0
    for (class_name, file_name, index_ids), values, rids, idx, coll in steps:
        rid = txn.create_object(class_name, values, file_name, index_ids)
        rids[idx] = rid
        coll.append(rid)
        created += 1
    return created


def stamp_each(om, rids, index_id, key_attr, pairs) -> tuple[int, int]:
    """``ObjectManager.stamp_index`` spelled as ``create_index``'s member
    loop before it: ``read_record``, then the header rewrite's re-read
    and write-back."""
    rewritten = grown = 0
    for rid in rids:
        record, class_def = om.read_record(rid)
        key = om.codec(class_def).decode_attr(record, key_attr)
        header = ObjectHeader.decode(record)
        if index_id not in header.index_ids:
            if header.add_index(index_id):
                grown += 1
            sfile = om.file_for(rid)
            record, actual = sfile.read_resolving(rid)
            new_record = header.encode() + record[ObjectHeader.peek_size(record):]
            rid = om._write_back(sfile, rid, actual, record, new_record)
            rewritten += 1
        pairs.append((key, rid))
    return rewritten, grown


KERNELS = (Transaction.create_objects, ObjectManager.stamp_index)
PER_OBJECT = (create_each, stamp_each)


def db_state(db) -> tuple:
    """What the create path and the header pass touch, floats as their
    bit patterns."""
    return (
        disk_fingerprint(db.disk),
        list(db.system.client_cache._pages),
        list(db.system.server_cache._pages),
        meter_values(db.counters),
        {bucket: db.clock.buckets.get(bucket, 0.0).hex() for bucket in Bucket},
    )


def txn_state(txm) -> tuple:
    return (
        list(txm.log.records),
        [(rid, repr(holders)) for rid, holders in txm.locks.granted.items()],
    )


class World:
    """One ``load_derby`` run through the kernels or through the
    per-object path, its state recorded after every batch and every
    member pass."""

    def __init__(self, monkeypatch, kernels: bool, object_budget: int | None = None):
        self.snapshots: list = []
        self.dbs: list = []
        self.managers: list = []
        create, stamp = KERNELS if kernels else PER_OBJECT
        snapshots, dbs, managers = self.snapshots, self.dbs, self.managers

        def create_objects(txn, steps):
            try:
                return create(txn, steps)
            finally:
                snapshots.append((
                    "batch", txn.objects_created,
                    db_state(txn.manager.db), txn_state(txn.manager),
                ))

        def stamp_index(om, rids, index_id, key_attr, pairs):
            try:
                return stamp(om, rids, index_id, key_attr, pairs)
            finally:
                snapshots.append(("members", list(pairs), db_state(dbs[-1])))

        def database_init(db, *args):
            init(db, *args)
            dbs.append(db)

        def transaction_manager(db):
            if object_budget is None:
                managers.append(TransactionManager(db))
            else:
                managers.append(TransactionManager(db, object_budget=object_budget))
            return managers[-1]

        monkeypatch.setattr(Transaction, "create_objects", create_objects)
        monkeypatch.setattr(ObjectManager, "stamp_index", stamp_index)
        init = Database.__init__
        monkeypatch.setattr(Database, "__init__", database_init)
        monkeypatch.setattr(loader, "TransactionManager", transaction_manager)


def both(monkeypatch, run, object_budget=None) -> list:
    """``run()`` in the kernel world and in the per-object world; returns
    each world with what ``run`` returned (or raised) as ``outcome``."""
    worlds = []
    for kernels in (True, False):
        with monkeypatch.context() as patch:
            world = World(patch, kernels, object_budget)
            try:
                world.outcome = run()
            except Exception as error:  # compared by type and text
                world.outcome = (type(error), str(error))
        worlds.append(world)
    return worlds


def tier(config: DerbyConfig, pages: int | None) -> DerbyConfig:
    """``config`` with a client tier of ``pages`` pages (``None``: its
    own)."""
    if pages is None:
        return config
    memory = replace(config.params.memory, client_cache_bytes=pages * PAGE_SIZE)
    return replace(config, params=replace(config.params, memory=memory))


def outcome_of(derby) -> tuple:
    return (
        db_state(derby.db),
        derby.provider_rids,
        derby.patient_rids,
        derby.load_report,
    )


@pytest.mark.parametrize("pages", [None, 1, 4], ids=["own-tier", "1-page", "4-page"])
@pytest.mark.parametrize("logged_load", [False, True], ids=["unlogged", "logged"])
@pytest.mark.parametrize("index_first", [True, False], ids=["index-first", "index-after"])
@pytest.mark.parametrize("clustering", list(Clustering), ids=lambda c: c.value)
def test_a_load_through_the_kernels_is_the_per_object_load(
    monkeypatch, clustering, index_first, logged_load, pages
):
    config = tier(
        DerbyConfig.db_1to3(
            scale=0.0001, clustering=clustering,
            index_first=index_first, logged_load=logged_load,
        ),
        pages,
    )
    kernel, per_object = both(
        monkeypatch, lambda: outcome_of(load_derby(config))
    )
    assert kernel.snapshots == per_object.snapshots
    assert kernel.outcome == per_object.outcome
    # every batch and every member pass was seen, the fallbacks among them
    batches = [s for s in kernel.snapshots if s[0] == "batch"]
    assert len(batches) == 1
    passes = [s for s in kernel.snapshots if s[0] == "members"]
    assert len(passes) == 3
    assert sum(map(len, (s[1] for s in passes))) == (0 if index_first else 700)


def test_the_big_database_spans_commit_batches(monkeypatch):
    """A load of more than one commit batch: a kernel call per batch,
    committed between, under random clustering with the providers
    interleaved, so a patient may name a provider of the same batch."""
    config = DerbyConfig.db_1to1000(
        scale=0.0051, clustering=Clustering.RANDOM, index_first=False
    )
    kernel, per_object = both(
        monkeypatch, lambda: outcome_of(load_derby(config))
    )
    assert kernel.snapshots == per_object.snapshots
    assert kernel.outcome == per_object.outcome
    batches = [s[1] for s in kernel.snapshots if s[0] == "batch"]
    assert batches == [10_000, 210]


@pytest.mark.parametrize("logged_load", [False, True], ids=["unlogged", "logged"])
def test_a_budget_smaller_than_the_batch_raises_at_the_same_object(
    monkeypatch, logged_load
):
    config = DerbyConfig.db_1to3(scale=0.0001, logged_load=logged_load)
    kernel, per_object = both(
        monkeypatch, lambda: outcome_of(load_derby(config)), object_budget=250
    )
    assert kernel.outcome == per_object.outcome == (
        TransactionMemoryError,
        f"transaction 1 created 250 objects; commit before creating more "
        "(the paper's 'out of memory')",
    )
    assert kernel.snapshots == per_object.snapshots
    assert [s[1] for s in kernel.snapshots if s[0] == "batch"] == [250]
    # the step past the budget was read, and nothing was made of it
    for world in (kernel, per_object):
        db = world.dbs[-1]
        assert len(db._names["Providers"]) + len(db._names["Patients"]) == 250
    assert db_state(kernel.dbs[-1]) == db_state(per_object.dbs[-1])


def doc_db() -> Database:
    """A ``Doc`` of about 400 bytes with a set, and a ``Big`` that no
    page holds."""
    schema = Schema()
    schema.define(
        "Doc",
        [
            AttributeDef("title", AttrKind.STRING, width=400),
            AttributeDef("n", AttrKind.INT32),
            AttributeDef("parts", AttrKind.REF_SET),
        ],
    )
    schema.define(
        "Big",
        [
            AttributeDef("title", AttrKind.STRING, width=5000),
            AttributeDef("n", AttrKind.INT32),
        ],
    )
    db = Database(schema)
    db.create_file("docs")
    return db


def doc_steps(db, rids, classes):
    """A step per class name, every third ``Doc`` with a set that
    spills to the collection file."""
    docs = db.new_collection("Docs")
    for i, class_name in enumerate(classes):
        values = {"title": "t", "n": i}
        if class_name == "Doc" and i % 3 == 2:
            values["parts"] = [rid for rid in rids[:i] if rid is not None] * 70
        yield (class_name, "docs", ()), values, rids, i, docs


@pytest.mark.parametrize("at", [0, 1, 9], ids=["first", "second", "tenth"])
def test_a_record_larger_than_a_page_raises_and_leaves_what_create_object_leaves(
    monkeypatch, at
):
    """``Page.insert``'s ``RecordTooLargeError``, after the same tail hit
    and on the same freshly allocated page as the per-object path, with
    the same objects counted."""
    classes = ["Doc"] * 12
    classes[at] = "Big"
    states = []
    for kernels in (True, False):
        with monkeypatch.context() as patch:
            World(patch, kernels)
            db = doc_db()
            txn = TransactionManager(db).begin(logged=False)
            rids = [None] * len(classes)
            with pytest.raises(RecordTooLargeError) as raised:
                txn.create_objects(doc_steps(db, rids, classes))
            states.append(
                (str(raised.value), db_state(db), rids, txn.objects_created)
            )
    assert states[0] == states[1]
    assert states[0][3] == at


def test_a_physically_logged_transaction_creates_one_object_at_a_time():
    """The kernel writes no page images: a transaction that logs them is
    refused the batch, and nothing is created."""
    db = doc_db()
    txn = TransactionManager(db, recovery=True).begin(logged=True)
    rids = [None]
    with pytest.raises(TransactionStateError, match="one object at a time"):
        txn.create_objects(doc_steps(db, rids, ["Doc"]))
    assert rids == [None] and txn.objects_created == 0
    assert db.disk.total_pages() == 0
