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
from repro.objects.database import Database, PersistentCollection
from repro.objects.handle import HandleMode
from repro.simtime.host import collector_paused
from repro.storage.rid import NIL_RID, Rid
from repro.txn import TransactionManager

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

    txm = TransactionManager(db, config.commit_batch)
    txn = txm.begin(logged=config.logged_load)
    created_in_batch = 0

    try:
        for kind, idx, fname in placement_order(logical, config.clustering):
            if created_in_batch >= config.commit_batch:
                txn.commit()
                report.commits += 1
                txn = txm.begin(logged=config.logged_load)
                created_in_batch = 0
            if kind == PATIENT_STEP:
                patient = logical.patients[idx]
                owner = provider_rids[patient.provider_idx]
                if owner is None:
                    deferred_refs.append(idx)
                rid = txn.create_object(
                    PATIENT_CLASS,
                    {
                        "name": patient.name,
                        "mrn": patient.mrn,
                        "age": patient.age,
                        "sex": patient.sex,
                        "random_integer": patient.random_integer,
                        "num": patient.num,
                        "primary_care_provider": owner,
                    },
                    fname,
                    index_ids=patient_index_ids,
                )
                patient_rids[idx] = rid
                patients.append(rid)
            else:
                provider = logical.providers[idx]
                rid = txn.create_object(
                    PROVIDER_CLASS,
                    {
                        "name": provider.name,
                        "upin": provider.upin,
                        "address": provider.address,
                        "specialty": provider.specialty,
                        "office": provider.office,
                        "clients": clients_placeholder,
                    },
                    fname,
                    index_ids=provider_index_ids,
                )
                provider_rids[idx] = rid
                providers.append(rid)
            created_in_batch += 1
            report.objects_created += 1

        # -- the association join (paper, Section 3.2) ---------------------
        # Fix patients created before their provider existed (random order).
        for idx in deferred_refs:
            patient = logical.patients[idx]
            db.manager.update_scalar(
                patient_rids[idx],                      # type: ignore[arg-type]
                "primary_care_provider",
                provider_rids[patient.provider_idx],
            )
        # Fill every provider's clients set; large sets spill, growing
        # records may move (the "not always right next to them" effect).
        for i, provider in enumerate(logical.providers):
            members = [patient_rids[j] for j in provider.patient_idxs]
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
        db.indexes[INDEX_BY_UPIN].bulk_build(
            (logical.providers[i].upin, provider_rids[i])
            for i in range(logical.n_providers)
        )
        db.indexes[INDEX_BY_MRN].bulk_build(
            (logical.patients[j].mrn, patient_rids[j])
            for j in range(logical.n_patients)
        )
        db.indexes[INDEX_BY_NUM].bulk_build(
            (logical.patients[j].num, patient_rids[j])
            for j in range(logical.n_patients)
        )
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
