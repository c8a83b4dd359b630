"""Partitioning Derby extents across shards.

A shard owns a *horizontal slice* of both extents: a subset of the
providers plus every patient whose ``random_integer`` names one of those
providers.  Co-locating each patient with its provider makes the
paper's doctor/patient join **shard-local** — ``random_integer = upin``
can never match across shards, so a distributed tree join is the bag
union of per-shard joins (the property :mod:`repro.dist.coordinator`
relies on).

Two schemes, both keyed on the provider ``upin`` (its 1-based creation
rank):

* **hash** — multiplicative integer hashing (Knuth's 2654435761
  constant; deterministic, unlike Python's seeded ``hash``), spreading
  consecutive upins uniformly;
* **range** — contiguous upin blocks, so range predicates on ``upin``
  touch few shards but popular ranges skew load.

Splitting is *logical*: the global :class:`~repro.derby.generator.
LogicalDatabase` is generated once, then each shard gets a per-shard
``LogicalDatabase`` view with **global attribute values preserved**
(``upin``, ``mrn``, ``num``, ``random_integer`` are untouched) and only
the ``owner`` column localized.  Each view is then loaded
through the ordinary single-node loader, so every shard is a complete,
self-consistent Derby database with its own files, indexes and
association sets.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

from repro.derby.generator import LogicalDatabase
from repro.errors import PartitionError, ReplicationError

#: The supported partitioning schemes.
PARTITION_SCHEMES = ("hash", "range")

#: Knuth's multiplicative hashing constant (2^32 / phi).
_KNUTH = 2_654_435_761
_MASK32 = 0xFFFF_FFFF


def hash_shard(upin: int, n_shards: int) -> int:
    """Deterministic multiplicative hash of a provider key."""
    return ((upin * _KNUTH) & _MASK32) % n_shards


def range_shard(upin: int, n_providers: int, n_shards: int) -> int:
    """Contiguous upin blocks: shard k owns upins in
    ``(k * n / shards, (k+1) * n / shards]``."""
    return min(n_shards - 1, (upin - 1) * n_shards // n_providers)


@dataclass(frozen=True)
class PartitionMap:
    """Where every global object lives: shard + index within the shard."""

    scheme: str
    n_shards: int
    #: Global provider index (0-based creation order) -> owning shard.
    provider_shard: tuple[int, ...]
    #: Global provider index -> index within the shard's provider list.
    provider_local: tuple[int, ...]
    #: Global patient index (0-based mrn order) -> owning shard.
    patient_shard: tuple[int, ...]
    #: Global patient index -> index within the shard's patient list.
    patient_local: tuple[int, ...]

    def patient_home(self, global_idx: int) -> tuple[int, int]:
        return self.patient_shard[global_idx], self.patient_local[global_idx]

    def shard_sizes(self) -> list[tuple[int, int]]:
        """Per-shard (providers, patients) counts."""
        sizes = [[0, 0] for __ in range(self.n_shards)]
        for shard in self.provider_shard:
            sizes[shard][0] += 1
        for shard in self.patient_shard:
            sizes[shard][1] += 1
        return [(p, q) for p, q in sizes]


class RouteTable:
    """Which node serves each shard *right now*, and at which epoch.

    The frozen :class:`PartitionMap` answers "which shard owns this
    object" — that never changes.  This mutable table answers "which
    node serves that shard", which failover rewrites: promoting a
    replica installs it in the shard's slot under the next epoch.

    The table wraps the cluster's node list *by reference* (no copy):
    everything holding that list — the global lock table, the
    coordinator, open exchanges — sees a rewrite immediately, which is
    exactly the semantics of updating the routing metadata all clients
    consult.  A rewrite must present ``current epoch + 1``; anything
    else means two promotions raced or a stale controller retried, and
    is refused."""

    def __init__(self, nodes: list):
        self._nodes = nodes
        self.epochs = [0] * len(nodes)
        #: Completed failovers per shard (diagnostics / CSV export).
        self.failovers = [0] * len(nodes)

    def node_for(self, shard_id: int):
        return self._nodes[shard_id]

    def epoch_of(self, shard_id: int) -> int:
        return self.epochs[shard_id]

    def rewrite(self, shard_id: int, node, epoch: int) -> None:
        """Install ``node`` as the shard's serving primary under
        ``epoch`` (must be the successor of the current epoch)."""
        if epoch != self.epochs[shard_id] + 1:
            raise ReplicationError(
                f"route rewrite for shard {shard_id} under epoch {epoch}; "
                f"current epoch is {self.epochs[shard_id]} (stale or "
                "duplicated promotion)"
            )
        self._nodes[shard_id] = node
        self.epochs[shard_id] = epoch
        self.failovers[shard_id] += 1


def split_logical(
    logical: LogicalDatabase, n_shards: int, scheme: str = "hash"
) -> tuple[PartitionMap, list[LogicalDatabase]]:
    """Partition one logical database into ``n_shards`` shard views.

    Providers are assigned by ``scheme`` on their upin; patients follow
    their provider.  Within a shard, providers keep global upin order
    and patients keep global mrn order, so a 1-shard split reproduces
    the original placement exactly (the equivalence baseline the tests
    pin down).  A view's ``owner`` column holds the shard-local provider
    index; every other column keeps its global value.
    """
    if scheme not in PARTITION_SCHEMES:
        raise PartitionError(
            f"unknown partition scheme {scheme!r}; choose from "
            f"{PARTITION_SCHEMES}"
        )
    if n_shards < 1:
        raise PartitionError(f"need at least one shard, got {n_shards}")

    n_providers = logical.n_providers
    if scheme == "hash":
        provider_shard = [hash_shard(upin, n_shards) for upin in logical.upin]
    else:
        provider_shard = [
            range_shard(upin, n_providers, n_shards) for upin in logical.upin
        ]
    shard_providers: list[list[int]] = [[] for __ in range(n_shards)]
    provider_local: list[int] = []
    for i, shard in enumerate(provider_shard):
        provider_local.append(len(shard_providers[shard]))
        shard_providers[shard].append(i)
    shard_patients: list[list[int]] = [[] for __ in range(n_shards)]
    patient_shard: list[int] = []
    patient_local: list[int] = []
    for j, i in enumerate(logical.owner):
        shard = provider_shard[i]
        patient_shard.append(shard)
        patient_local.append(len(shard_patients[shard]))
        shard_patients[shard].append(j)

    views = [
        _view(logical, providers, patients, provider_local)
        for providers, patients in zip(shard_providers, shard_patients)
    ]
    part = PartitionMap(
        scheme=scheme,
        n_shards=n_shards,
        provider_shard=tuple(provider_shard),
        provider_local=tuple(provider_local),
        patient_shard=tuple(patient_shard),
        patient_local=tuple(patient_local),
    )
    return part, views


def _view(
    logical: LogicalDatabase,
    providers: list[int],
    patients: list[int],
    provider_local: list[int],
) -> LogicalDatabase:
    """The shard view of ``logical`` holding the providers and patients
    at these global indices.  Its build recipe is the global config with
    the counts of this slice, floored at 1: ``DerbyConfig`` validates
    counts, but an empty shard's loader iterates the empty columns, not
    these numbers."""
    return LogicalDatabase(
        config=replace(
            logical.config,
            n_providers=max(1, len(providers)),
            n_patients=max(1, len(patients)),
        ),
        upin=array("i", [logical.upin[i] for i in providers]),
        provider_name=[logical.provider_name[i] for i in providers],
        address=[logical.address[i] for i in providers],
        specialty=[logical.specialty[i] for i in providers],
        office=[logical.office[i] for i in providers],
        mrn=array("i", [logical.mrn[j] for j in patients]),
        patient_name=[logical.patient_name[j] for j in patients],
        age=array("i", [logical.age[j] for j in patients]),
        sex=[logical.sex[j] for j in patients],
        random_integer=array("i", [logical.random_integer[j] for j in patients]),
        num=array("i", [logical.num[j] for j in patients]),
        owner=array(
            "i", [provider_local[logical.owner[j]] for j in patients]
        ),
    )
