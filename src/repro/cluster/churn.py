"""Update churn: how clustering decays in production.

The paper warns that O2's composition clustering "can be specified, but
is not guaranteed.  It may be necessary to dump and reload the database
once in a while to maintain a reasonable cluster" (Section 2).  This
module provides the decay: new patients register over time, landing at
the end of the file (far from their provider) and growing their
provider's ``clients`` set (which can move the provider too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.loader import DerbyDatabase
from repro.cluster.strategies import file_names
from repro.derby.lrand48 import Lrand48
from repro.derby.schema import PATIENT_CLASS, character_name


@dataclass(frozen=True)
class ChurnReport:
    """What a registration wave did to the database."""

    new_patients: int
    records_moved: int
    pages_before: int
    pages_after: int


def register_new_patients(derby: DerbyDatabase, count: int) -> ChurnReport:
    """Register ``count`` new patients with random providers.

    Each new patient is appended at the tail of the patient file —
    regardless of where its provider lives — added to the ``Patients``
    extent and both patient indexes, and linked into its provider's
    ``clients`` set (growing it, possibly moving the provider).  Under
    composition clustering this is exactly the decay the paper warns
    about.
    """
    if count < 0:
        raise ValueError(f"negative patient count: {count}")
    db = derby.db
    om = db.manager
    rng = Lrand48(2000)
    __, patient_file = file_names(derby.config.clustering)
    moved_before = db.counters.records_moved
    pages_before = db.disk.total_pages()

    mrn = len(derby.patient_rids)
    by_mrn, by_num = derby.by_mrn, derby.by_num
    for __step in range(count):
        mrn += 1
        provider_idx = rng.randrange(len(derby.provider_rids))
        provider_rid = derby.provider_rids[provider_idx]
        num = rng.randrange(max(1, len(derby.patient_rids)))
        rid = db.create_object(
            PATIENT_CLASS,
            {
                "name": character_name(mrn + 13),
                "mrn": mrn,
                "age": 1 + rng.randrange(99),
                "sex": "F" if rng.randrange(2) else "M",
                "random_integer": provider_idx + 1,
                "num": num,
                "primary_care_provider": provider_rid,
            },
            patient_file,
            index_ids=(by_mrn.index_id, by_num.index_id),
        )
        derby.patient_rids.append(rid)
        derby.patients.append(rid)
        by_mrn.insert(mrn, rid)
        by_num.insert(num, rid)

        # Grow the provider's clients set (may relocate the provider).
        with om.borrow(provider_rid) as handle:
            clients = om.get_attr(handle, "clients")
        members = list(db.iter_set_rids(clients))
        members.append(rid)
        new_provider_rid = om.update_set(
            provider_rid, "clients", db.prepare_set(members)
        )
        if new_provider_rid != provider_rid:
            derby.provider_rids[provider_idx] = new_provider_rid

    derby.patients.flush()
    # Keep the config's cardinality truthful so selectivity thresholds
    # computed from it stay meaningful after churn.
    derby.config = replace(
        derby.config, n_patients=len(derby.patient_rids)
    )
    return ChurnReport(
        new_patients=count,
        records_moved=db.counters.records_moved - moved_before,
        pages_before=pages_before,
        pages_after=db.disk.total_pages(),
    )
