"""Dump and reload: restoring clustering after churn.

"In O2 this kind of clustering can be specified, but is not guaranteed.
It may be necessary to dump and reload the database once in a while to
maintain a reasonable cluster." — paper, Section 2.

:func:`dump_and_reload` reads the logical content back out of a
(possibly fragmented) database — a full charged scan, the dump's real
cost — and bulk-loads a pristine replacement under the same clustering
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.loader import DerbyDatabase, load_derby
from repro.derby.generator import (
    LogicalDatabase,
    LogicalPatient,
    LogicalProvider,
)


@dataclass(frozen=True)
class ReorganizeReport:
    """Costs of one dump-and-reload cycle."""

    dump_seconds: float
    reload_seconds: float
    pages_before: int
    pages_after: int


def dump_logical(derby: DerbyDatabase) -> LogicalDatabase:
    """Read the database's full logical content back out (charged).

    Providers come back in ``upin`` order and patients in ``mrn`` order,
    which is exactly the creation order the loader expects.
    """
    om = derby.db.manager
    providers: list[LogicalProvider] = []
    for __, rid in derby.by_upin.range_scan():
        record, class_def = om.read_record(rid)
        values = om.codec(class_def).decode(record)
        providers.append(
            LogicalProvider(
                upin=values["upin"],        # type: ignore[arg-type]
                name=values["name"],        # type: ignore[arg-type]
                address=values["address"],  # type: ignore[arg-type]
                specialty=values["specialty"],  # type: ignore[arg-type]
                office=values["office"],    # type: ignore[arg-type]
            )
        )
    patients: list[LogicalPatient] = []
    for j, (__, rid) in enumerate(derby.by_mrn.range_scan()):
        record, class_def = om.read_record(rid)
        values = om.codec(class_def).decode(record)
        patient = LogicalPatient(
            mrn=values["mrn"],                       # type: ignore[arg-type]
            name=values["name"],                     # type: ignore[arg-type]
            age=values["age"],                       # type: ignore[arg-type]
            sex=values["sex"],                       # type: ignore[arg-type]
            random_integer=values["random_integer"],  # type: ignore[arg-type]
            num=values["num"],                       # type: ignore[arg-type]
        )
        patients.append(patient)
        providers[patient.provider_idx].patient_idxs.append(j)

    config = replace(
        derby.config,
        n_providers=len(providers),
        n_patients=len(patients),
    )
    return LogicalDatabase(config, providers, patients)


def dump_and_reload(derby: DerbyDatabase) -> tuple[DerbyDatabase, ReorganizeReport]:
    """Dump ``derby`` and bulk-load a fresh, perfectly clustered copy
    under the database's current strategy."""
    derby.db.reset_meters()
    pages_before = derby.db.disk.total_pages()
    logical = dump_logical(derby)
    dump_seconds = derby.db.clock.elapsed_s
    fresh = load_derby(logical.config, logical=logical)
    report = ReorganizeReport(
        dump_seconds=dump_seconds,
        reload_seconds=fresh.load_report.seconds,
        pages_before=pages_before,
        pages_after=fresh.db.disk.total_pages(),
    )
    return fresh, report
