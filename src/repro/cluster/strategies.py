"""Physical placement orders for each clustering strategy.

A placement order is a sequence of ``("P", i)`` / ``("p", j)`` steps —
create provider ``i`` / patient ``j`` next — plus, per step, the file the
object goes to.  The loader walks the sequence; everything else
(extents, indexes, association fix-up) is organization-independent.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.derby.config import Clustering
from repro.derby.generator import LogicalDatabase

#: File names used by the loaders.
PROVIDERS_FILE = "providers"
PATIENTS_FILE = "patients"
OBJECTS_FILE = "objects"

#: A placement step: (kind, logical index, file name).
PlacementStep = tuple[str, int, str]

PROVIDER_STEP = "P"
PATIENT_STEP = "p"


def file_names(clustering: Clustering) -> tuple[str, str]:
    """(provider file, patient file) for a clustering strategy."""
    if clustering in (Clustering.RANDOM, Clustering.COMPOSITION):
        return OBJECTS_FILE, OBJECTS_FILE
    return PROVIDERS_FILE, PATIENTS_FILE


def placement_order(
    logical: LogicalDatabase, clustering: Clustering
) -> Iterator[PlacementStep]:
    """Yield the creation sequence for ``clustering``."""
    provider_file, patient_file = file_names(clustering)

    if clustering is Clustering.CLASS:
        # The paper's build: all doctors, then all patients (Section 3.2).
        for i in range(logical.n_providers):
            yield PROVIDER_STEP, i, provider_file
        for j in range(logical.n_patients):
            yield PATIENT_STEP, j, patient_file
        return

    if clustering is Clustering.RANDOM:
        steps: list[PlacementStep] = [
            (PROVIDER_STEP, i, provider_file) for i in range(logical.n_providers)
        ]
        steps.extend(
            (PATIENT_STEP, j, patient_file) for j in range(logical.n_patients)
        )
        random.Random(logical.config.seed).shuffle(steps)
        yield from steps
        return

    # COMPOSITION and ASSOCIATION: patients follow their provider; the
    # difference is only which file each kind goes to.  Within a
    # provider, patients land in set-iteration order — O2 sets are
    # unordered, so the within-group order carries no mrn correlation
    # (a shuffled order here; without this, an mrn range would select a
    # neat prefix of every group and composition would look unrealistically
    # friendly to index scans).
    for i in range(logical.n_providers):
        yield PROVIDER_STEP, i, provider_file
        group = logical.patients_of(i).tolist()
        random.Random(logical.config.seed * 31 + i).shuffle(group)
        for j in group:
            yield PATIENT_STEP, j, patient_file
