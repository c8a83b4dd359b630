"""Bulk loading of Derby databases under every clustering strategy.

The loader applies the lessons of the paper's Section 3.2:

* objects are created in commit batches (default 10,000 — more raises
  the simulated "out of memory"),
* transactions are off by default for loading ("we used this mode only
  for loading, not for running our tests"),
* with ``index_first=True`` (default) indexes are declared before
  population so objects are born with header slots; with
  ``index_first=False`` the indexes are created afterwards, paying the
  full header-rewrite pass (and record moves for the first index),
* the doctor-patient association is randomized: patients reference their
  provider via ``random_integer`` and the provider ``clients`` sets are
  filled by a final join pass, exactly as the paper loads its data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator

from repro.cluster.strategies import (
    PATIENT_STEP,
    file_names,
    placement_order,
)
from repro.derby.config import DerbyConfig
from repro.derby.generator import LogicalDatabase, generate
from repro.derby.schema import (
    PATIENT_CLASS,
    PATIENTS_NAME,
    PROVIDER_CLASS,
    PROVIDERS_NAME,
    build_derby_schema,
)
from repro.index import BTreeIndex, IndexBuildReport, IndexManager
from repro.objects.codec import INLINE_SET_LIMIT_BYTES, InlineSet
from repro.objects.database import CreateStep, Database, PersistentCollection
from repro.objects.handle import HandleMode
from repro.simtime.host import collector_paused
from repro.storage.rid import NIL_RID, Rid
from repro.txn import TransactionManager
from repro.txn.manager import DEFAULT_OBJECT_BUDGET

#: Objects per load transaction: the paper's batch of 10,000, exactly
#: one transaction's object budget.
COMMIT_BATCH = DEFAULT_OBJECT_BUDGET

#: Index names every loaded Derby database carries.
INDEX_BY_MRN = "Patients_by_mrn"
INDEX_BY_UPIN = "Providers_by_upin"
INDEX_BY_NUM = "Patients_by_num"


@dataclass
class LoadReport:
    """What loading cost (the paper's 12-hours-to-5-hours story)."""

    seconds: float = 0.0
    objects_created: int = 0
    commits: int = 0
    records_moved: int = 0
    disk_pages: int = 0
    index_reports: dict[str, IndexBuildReport] = field(default_factory=dict)


@dataclass
class DerbyDatabase:
    """A loaded, queryable physical Derby database."""

    config: DerbyConfig
    db: Database
    providers: PersistentCollection
    patients: PersistentCollection
    provider_rids: list[Rid]
    patient_rids: list[Rid]
    load_report: LoadReport

    @property
    def by_mrn(self) -> BTreeIndex:
        return self.db.indexes[INDEX_BY_MRN]

    @property
    def by_upin(self) -> BTreeIndex:
        return self.db.indexes[INDEX_BY_UPIN]

    @property
    def by_num(self) -> BTreeIndex:
        return self.db.indexes[INDEX_BY_NUM]

    def start_cold_run(self) -> None:
        """Empty caches and zero meters: the state every measured query
        starts from (paper, Section 2)."""
        self.db.restart_cold()
        self.db.reset_meters()


@collector_paused()  # every object a load allocates, it keeps
def load_derby(
    config: DerbyConfig,
    logical: LogicalDatabase | None = None,
    handle_mode: HandleMode = HandleMode.FULL,
) -> DerbyDatabase:
    """Generate (unless given) and physically load a Derby database."""
    logical = logical or generate(config)
    db = Database(build_derby_schema(), config.params, handle_mode)
    provider_file, patient_file = file_names(config.clustering)
    db.create_file(provider_file)
    if patient_file != provider_file:
        db.create_file(patient_file)

    providers = db.new_collection(PROVIDERS_NAME)
    patients = db.new_collection(PATIENTS_NAME)
    index_manager = IndexManager(db)
    report = LoadReport()

    provider_index_ids: tuple[int, ...] = ()
    patient_index_ids: tuple[int, ...] = ()
    if config.index_first:
        by_upin, __ = index_manager.create_index(INDEX_BY_UPIN, providers, "upin")
        by_mrn, __ = index_manager.create_index(INDEX_BY_MRN, patients, "mrn")
        by_num, __ = index_manager.create_index(INDEX_BY_NUM, patients, "num")
        provider_index_ids = (by_upin.index_id,)
        patient_index_ids = (by_mrn.index_id, by_num.index_id)

    provider_rids: list[Rid | None] = [None] * logical.n_providers
    patient_rids: list[Rid | None] = [None] * logical.n_patients
    deferred_refs: list[int] = []  # patient idxs created before their provider

    # Reserve inline space for the clients set at creation time — the
    # growth slack O2 leaves "to deal with growing strings or
    # collections" (Section 2) — so the association pass mostly updates
    # records in place instead of moving providers around.  Sets that
    # will spill to the collection file need no reservation.
    avg = config.avg_children
    if avg * Rid.DISK_SIZE <= INLINE_SET_LIMIT_BYTES // 2:
        clients_placeholder = InlineSet((NIL_RID,) * (int(avg) + 2))
    else:
        clients_placeholder = InlineSet(())

    txm = TransactionManager(db)
    txn = txm.begin(logged=config.logged_load)

    # The columns the steps read, bound once.
    owner = logical.owner
    patient_name, mrn, age, sex = (
        logical.patient_name, logical.mrn, logical.age, logical.sex
    )
    random_integer, num = logical.random_integer, logical.num
    provider_name, upin = logical.provider_name, logical.upin
    address, specialty, office = (
        logical.address, logical.specialty, logical.office
    )
    patient_key = (PATIENT_CLASS, patient_file, patient_index_ids)
    provider_key = (PROVIDER_CLASS, provider_file, provider_index_ids)

    def steps() -> Iterator[CreateStep]:
        """What to create, in placement order, read as it is created:
        a patient's provider may be an object of the same batch."""
        for kind, idx, __ in placement_order(logical, config.clustering):
            if kind == PATIENT_STEP:
                provider_rid = provider_rids[owner[idx]]
                if provider_rid is None:
                    deferred_refs.append(idx)
                yield (
                    patient_key,
                    {
                        "name": patient_name[idx],
                        "mrn": mrn[idx],
                        "age": age[idx],
                        "sex": sex[idx],
                        "random_integer": random_integer[idx],
                        "num": num[idx],
                        "primary_care_provider": provider_rid,
                    },
                    patient_rids,
                    idx,
                    patients,
                )
            else:
                yield (
                    provider_key,
                    {
                        "name": provider_name[idx],
                        "upin": upin[idx],
                        "address": address[idx],
                        "specialty": specialty[idx],
                        "office": office[idx],
                        "clients": clients_placeholder,
                    },
                    provider_rids,
                    idx,
                    providers,
                )

    try:
        # One kernel call per commit batch.  The loop reads each batch's
        # first step itself, so a batch is committed only once a step
        # follows it; the last one stays open for the association pass.
        pending = steps()
        for first in pending:
            if txn.objects_created:  # a full batch came before this step
                txn.commit()
                report.commits += 1
                txn = txm.begin(logged=config.logged_load)
            report.objects_created += txn.create_objects(
                chain((first,), islice(pending, COMMIT_BATCH - 1))
            )

        # -- the association join (paper, Section 3.2) ---------------------
        # Fix patients created before their provider existed (random order).
        for idx in deferred_refs:
            db.manager.update_scalar(
                patient_rids[idx],                      # type: ignore[arg-type]
                "primary_care_provider",
                provider_rids[owner[idx]],
            )
        # Fill every provider's clients set; large sets spill, growing
        # records may move (the "not always right next to them" effect).
        for i in range(logical.n_providers):
            members = [patient_rids[j] for j in logical.patients_of(i)]
            new_rid = db.manager.update_set(
                provider_rids[i],                        # type: ignore[arg-type]
                "clients",
                db.prepare_set(members),
            )
            provider_rids[i] = new_rid

        txn.commit()
        report.commits += 1
    except BaseException:
        # a failed load is unrecoverable by design (the caller
        # rebuilds from scratch), but the open batch transaction
        # must still release its locks and WAL claim on the way out
        if txn.state == "active":
            txn.abort()
        raise
    providers.flush()
    patients.flush()

    # -- indexes ----------------------------------------------------------
    if config.index_first:
        db.indexes[INDEX_BY_UPIN].bulk_build(zip(upin, provider_rids))
        db.indexes[INDEX_BY_MRN].bulk_build(zip(mrn, patient_rids))
        db.indexes[INDEX_BY_NUM].bulk_build(zip(num, patient_rids))
    else:
        for name, coll, attr in (
            (INDEX_BY_UPIN, providers, "upin"),
            (INDEX_BY_MRN, patients, "mrn"),
            (INDEX_BY_NUM, patients, "num"),
        ):
            __, build = index_manager.create_index(name, coll, attr)
            report.index_reports[name] = build

    db.shutdown()
    report.seconds = db.clock.elapsed_s
    report.records_moved = db.counters.records_moved
    report.disk_pages = db.disk.total_pages()

    return DerbyDatabase(
        config=config,
        db=db,
        providers=providers,
        patients=patients,
        provider_rids=[r for r in provider_rids if r is not None],
        patient_rids=[r for r in patient_rids if r is not None],
        load_report=report,
    )
