"""The simulation clock.

Every substrate charges modeled time here, tagged with a :class:`Bucket`,
so that experiments can report both a total elapsed time (the paper's
``ElapsedTime``) and its decomposition (the paper's Figure 9 analysis of
standard scan vs sorted index scan).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.units import MS_PER_S, US_PER_S


class Bucket(enum.Enum):
    """Where a slice of simulated time was spent.

    Members hash by identity, in C: ``Enum.__hash__`` is a Python-level
    call, and every charge keys a dict with a member.  A dict keeps
    insertion order whatever the hash, but a *set* of buckets iterates
    in address order -- sort before iterating one (``SimClock.since``).

    A module that charges binds the members it uses once, at module
    level (``_CPU = Bucket.CPU``), and never reads one off the class
    inside a function: on CPython 3.11 ``EnumType`` defines
    ``__getattr__``, so ``Bucket.CPU`` takes the slow attribute hook,
    about 110 ns against a few for a global -- no Python frame runs, so
    no profiler counts it, and a per-row charge site pays it per row.
    ``LockMode`` and ``TaskState`` are bound the same way, and
    ``tests/test_hot_path_budget.py`` holds all three to it.
    """

    __hash__ = object.__hash__

    IO = "io"                # disk page reads/writes
    TRANSFER = "transfer"    # server cache -> client cache pages
    RPC = "rpc"              # per-RPC fixed overhead
    HANDLE = "handle"        # handle get/unreference
    CPU = "cpu"              # compares, decodes, predicates, hash ops
    SORT = "sort"            # sorting rids / keys
    RESULT = "result"        # result collection construction
    SWAP = "swap"            # OS paging of query working memory
    LOG = "log"              # WAL traffic
    LOCK = "lock"            # lock manager
    LOAD = "load"            # object creation / record moves
    BACKOFF = "backoff"      # retry backoff after aborts / faults
    REMOTE = "remote"        # waiting on parallel work at remote shards


#: Each bucket's name, resolved once: ``Enum.value`` is a property, two
#: Python calls per read.
_NAMES = {bucket: bucket.value for bucket in Bucket}


@dataclass
class SimClock:
    """Accumulates simulated seconds, split by :class:`Bucket`.

    The clock is deliberately dumb: it never decides *what* costs, only
    adds up what components charge.  All mutating methods return ``None``.

    ``buckets`` holds buckets in the order they were first charged, and
    ``elapsed_s`` sums in that order: float addition does not associate,
    so the order is part of every pinned simulated output.  It is a
    ``defaultdict`` so that a charge is one in-place add, first charge
    or not; everything else reads it with ``get`` and inserts nothing.
    """

    #: The live bucket map, seconds per bucket.  A per-row charge site
    #: adds into it directly -- ``clock.buckets[_CPU] += seconds``, with
    #: ``_CPU = Bucket.CPU`` bound at module level, is exactly what
    #: ``charge_s`` does, without the call -- so it may
    #: be bound ahead of a loop: ``reset`` empties this very object, it
    #: never replaces it.  ``charge_*`` reject a negative amount; an
    #: in-place add does not, so it adds only prices taken from a
    #: :class:`~repro.simtime.params.CostParams`, which holds none.
    buckets: defaultdict[Bucket, float] = field(
        default_factory=lambda: defaultdict(float)
    )

    def charge_ms(self, bucket: Bucket, ms: float) -> None:
        """Add ``ms`` milliseconds of simulated time to ``bucket``."""
        if ms < 0:
            raise ValueError(f"negative charge: {ms} ms")
        self.buckets[bucket] += ms / MS_PER_S

    def charge_us(self, bucket: Bucket, us: float) -> None:
        """Add ``us`` microseconds of simulated time to ``bucket``."""
        if us < 0:
            raise ValueError(f"negative charge: {us} us")
        self.buckets[bucket] += us / US_PER_S

    def charge_s(self, bucket: Bucket, seconds: float) -> None:
        """Add ``seconds`` of simulated time to ``bucket``."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds} s")
        self.buckets[bucket] += seconds

    @property
    def elapsed_s(self) -> float:
        """Total simulated seconds across all buckets."""
        return sum(self.buckets.values())

    def bucket_s(self, bucket: Bucket) -> float:
        """Simulated seconds accumulated in one bucket."""
        return self.buckets.get(bucket, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Mapping of bucket name to seconds, for reports."""
        return {_NAMES[bucket]: seconds for bucket, seconds in self.buckets.items()}

    def reset(self) -> None:
        """Zero every bucket (start of a fresh, cold experiment)."""
        self.buckets.clear()

    def snapshot(self) -> dict[Bucket, float]:
        """Copy of the current per-bucket totals."""
        return dict(self.buckets)

    def since(self, earlier: dict[Bucket, float]) -> dict[Bucket, float]:
        """Per-bucket difference between now and a prior :meth:`snapshot`.

        Buckets are emitted in name order: this dict flows into Stat
        rows and reports, so its iteration order must not depend on set
        hashing."""
        buckets = sorted(set(self.buckets) | set(earlier), key=_NAMES.__getitem__)
        return {
            bucket: self.buckets.get(bucket, 0.0) - earlier.get(bucket, 0.0)
            for bucket in buckets
        }
