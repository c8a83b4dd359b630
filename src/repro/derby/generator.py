"""Logical Derby data generation.

The paper builds its databases in a specific order (Section 3.2): all
doctors first (``upin`` = relative disk position), then all patients
(``random_integer`` drawn with lrand48 between 1 and the number of
doctors), then a join over ``upin = random_integer`` updates the
association.  We reproduce that *logical* process here, independent of
the physical organization: the clustering loaders in
:mod:`repro.cluster.loader` decide where each object lands on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.derby.config import DerbyConfig
from repro.derby.lrand48 import Lrand48
from repro.derby.schema import character_name
from repro.simtime.host import collector_paused


@dataclass
class LogicalProvider:
    """One doctor before physical placement."""

    upin: int               # 1-based logical creation rank
    name: str
    address: str
    specialty: str
    office: str
    patient_idxs: list[int] = field(default_factory=list)


@dataclass
class LogicalPatient:
    """One patient before physical placement."""

    mrn: int                # 1-based logical creation rank
    name: str
    age: int
    sex: str
    random_integer: int     # in [1, n_providers]: the assigned doctor
    num: int                # random key, uniform over [0, n_patients)

    @property
    def provider_idx(self) -> int:
        return self.random_integer - 1


@dataclass
class LogicalDatabase:
    """The generated logical content of one Derby database."""

    config: DerbyConfig
    providers: list[LogicalProvider]
    patients: list[LogicalPatient]

    @property
    def n_providers(self) -> int:
        return len(self.providers)

    @property
    def n_patients(self) -> int:
        return len(self.patients)


_SPECIALTIES = ("cardiology", "oncology", "pediatrics", "surgery", "gp")


@collector_paused()  # a million live objects and no garbage
def generate(config: DerbyConfig) -> LogicalDatabase:
    """Generate the logical database for ``config`` deterministically."""
    rng = Lrand48(config.seed)
    providers = [
        LogicalProvider(
            upin=i + 1,
            name=character_name(i),
            address=f"{i % 997} Rue de Saverne",
            specialty=_SPECIALTIES[i % len(_SPECIALTIES)],
            office=f"office-{i % 512}",
        )
        for i in range(config.n_providers)
    ]
    patients = []
    for j in range(config.n_patients):
        assigned = rng.randint_1_to(config.n_providers)
        patients.append(
            LogicalPatient(
                mrn=j + 1,
                name=character_name(j + 13),
                age=1 + rng.randrange(99),
                sex="F" if rng.randrange(2) else "M",
                random_integer=assigned,
                num=rng.randrange(config.n_patients),
            )
        )
        providers[assigned - 1].patient_idxs.append(j)
    return LogicalDatabase(config, providers, patients)
