"""Logical Derby data generation.

The paper builds its databases in a specific order (Section 3.2): all
doctors first (``upin`` = relative disk position), then all patients
(``random_integer`` drawn with lrand48 between 1 and the number of
doctors), then a join over ``upin = random_integer`` updates the
association.  We reproduce that *logical* process here, independent of
the physical organization: the clustering loaders in
:mod:`repro.cluster.loader` decide where each object lands on disk.

A :class:`LogicalDatabase` is columns, not rows: one sequence per
attribute, indexed by the object's 0-based creation rank (provider ``i``,
patient ``j``).  The paper's 1:3 database is 4 M objects, and a row
object per object would hold more host memory than the physical database
it describes.

* Integer attributes are ``array('i')``: 4 bytes a value.  ``upin`` and
  ``mrn`` are the creation rank plus one, so :func:`generate` keeps them
  as a ``range``; a view (a shard, a dump) keeps an ``array``.
* Names are the strings :func:`generate` formats once.  Patient ``j`` is
  named ``character_name(j + 13)``, which is provider ``j + 13``'s name,
  so the two name columns share one list's strings.
* ``address``, ``office`` and ``specialty`` point into tables of their
  997, 512 and 5 distinct strings; ``sex`` into ``"F"`` / ``"M"``.
* ``owner[j]`` is patient ``j``'s provider as an index into *this*
  database's provider columns.  In a generated database it is
  ``random_integer[j] - 1``; in a shard view ``random_integer`` keeps
  the global upin and ``owner`` the shard-local index.
* Each provider's patients are one CSR, derived from ``owner``:
  ``members[starts[i]:starts[i + 1]]`` in ascending patient order, the
  order the association was drawn in.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.derby.config import DerbyConfig
from repro.derby.lrand48 import Lrand48
from repro.derby.schema import character_name
from repro.simtime.host import collector_paused

_SPECIALTIES = ("cardiology", "oncology", "pediatrics", "surgery", "gp")
_ADDRESSES = tuple(f"{k} Rue de Saverne" for k in range(997))
_OFFICES = tuple(f"office-{k}" for k in range(512))
#: Patient ``j``'s name is ``character_name(j + _PATIENT_NAME_OFFSET)``.
_PATIENT_NAME_OFFSET = 13


@dataclass
class LogicalDatabase:
    """The generated logical content of one Derby database, as columns
    (see the module docstring)."""

    config: DerbyConfig
    # -- providers, by creation rank ----------------------------------
    upin: Sequence[int]
    provider_name: Sequence[str]
    address: Sequence[str]
    specialty: Sequence[str]
    office: Sequence[str]
    # -- patients, by creation rank ------------------------------------
    mrn: Sequence[int]
    patient_name: Sequence[str]
    age: array
    sex: Sequence[str]
    random_integer: array
    num: array
    owner: array
    # -- each provider's patients (a CSR over ``owner``) ----------------
    starts: array = field(init=False)
    members: array = field(init=False)

    def __post_init__(self) -> None:
        self.starts, self.members = _group_by_owner(self.owner, len(self.upin))

    @property
    def n_providers(self) -> int:
        return len(self.upin)

    @property
    def n_patients(self) -> int:
        return len(self.mrn)

    def patients_of(self, i: int) -> array:
        """Provider ``i``'s patients, in ascending patient order."""
        return self.members[self.starts[i]:self.starts[i + 1]]


def _group_by_owner(owner: array, n_providers: int) -> tuple[array, array]:
    """The CSR of ``owner``: a counting sort of the patient indices by
    their provider, stable, so each group keeps ascending order."""
    counts = [0] * (n_providers + 1)
    for i in owner:
        counts[i + 1] += 1
    for i in range(n_providers):
        counts[i + 1] += counts[i]
    starts = array("i", counts)
    slots = counts[:n_providers]
    members = array("i", bytes(4 * len(owner)))
    for j, i in enumerate(owner):
        members[slots[i]] = j
        slots[i] += 1
    return starts, members


@collector_paused()  # a million live strings and no garbage
def generate(config: DerbyConfig) -> LogicalDatabase:
    """Generate the logical database for ``config`` deterministically."""
    rng = Lrand48(config.seed)
    n_providers = config.n_providers
    n_patients = config.n_patients
    names = [
        character_name(k)
        for k in range(max(n_providers, n_patients + _PATIENT_NAME_OFFSET))
    ]
    age = array("i")
    sex = []
    random_integer = array("i")
    num = array("i")
    randint = rng.randint_1_to
    randrange = rng.randrange
    for __ in range(n_patients):
        random_integer.append(randint(n_providers))
        age.append(1 + randrange(99))
        sex.append("F" if randrange(2) else "M")
        num.append(randrange(n_patients))
    return LogicalDatabase(
        config,
        upin=range(1, n_providers + 1),
        provider_name=names[:n_providers],
        address=[_ADDRESSES[i % len(_ADDRESSES)] for i in range(n_providers)],
        specialty=[
            _SPECIALTIES[i % len(_SPECIALTIES)] for i in range(n_providers)
        ],
        office=[_OFFICES[i % len(_OFFICES)] for i in range(n_providers)],
        mrn=range(1, n_patients + 1),
        patient_name=names[
            _PATIENT_NAME_OFFSET:_PATIENT_NAME_OFFSET + n_patients
        ],
        age=age,
        sex=sex,
        random_integer=random_integer,
        num=num,
        owner=array("i", [r - 1 for r in random_integer]),
    )
