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

from array import array
from dataclasses import dataclass, replace

from repro.cluster.loader import DerbyDatabase, load_derby
from repro.derby.generator import LogicalDatabase


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
    providers = [
        om.codec(class_def).decode(record)
        for record, class_def in map(om.read_record, derby.by_upin.rid_scan())
    ]
    patients = [
        om.codec(class_def).decode(record)
        for record, class_def in map(om.read_record, derby.by_mrn.rid_scan())
    ]
    random_integer = array("i", [p["random_integer"] for p in patients])
    config = replace(
        derby.config,
        n_providers=len(providers),
        n_patients=len(patients),
    )
    return LogicalDatabase(
        config,
        upin=array("i", [p["upin"] for p in providers]),
        provider_name=[p["name"] for p in providers],
        address=[p["address"] for p in providers],
        specialty=[p["specialty"] for p in providers],
        office=[p["office"] for p in providers],
        mrn=array("i", [p["mrn"] for p in patients]),
        patient_name=[p["name"] for p in patients],
        age=array("i", [p["age"] for p in patients]),
        sex=[p["sex"] for p in patients],
        random_integer=random_integer,
        num=array("i", [p["num"] for p in patients]),
        owner=array("i", [r - 1 for r in random_integer]),
    )


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
