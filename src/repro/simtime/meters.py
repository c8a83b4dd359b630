"""Event counters shared by the storage and buffer substrates.

The paper's ``Stat`` schema (Figure 3) records, for every experiment, the
number of RPCs, their total size, disk-to-server-cache page reads,
server-to-client-cache page reads, client-cache page faults and the two
miss rates.  :class:`CounterSet` is the mutable tally those components
update; :class:`MeterSnapshot` is the immutable difference between two
points in time that gets stored in a ``Stat`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import add, attrgetter, sub


@dataclass
class CounterSet:
    """Mutable event counters for one simulated system."""

    disk_reads: int = 0          # pages read disk -> server cache
    disk_writes: int = 0         # pages written server cache -> disk
    server_to_client: int = 0    # pages read server cache -> client cache
    rpcs: int = 0                # client/server round trips
    rpc_bytes: int = 0           # total payload of those RPCs
    client_faults: int = 0       # client-cache misses (page faults)
    client_hits: int = 0         # client-cache hits
    server_faults: int = 0       # server-cache misses
    server_hits: int = 0         # server-cache hits
    swap_faults: int = 0         # OS paging events on query memory
    handles_allocated: int = 0   # full + compact handles created
    handles_unreferenced: int = 0
    records_moved: int = 0       # on-disk record reallocations
    io_faults: int = 0           # transient page-read faults retried
    io_failures: int = 0         # reads escalated to PermanentIOError

    def reset(self) -> None:
        vars(self).update(_ZEROED)

    def snapshot(self) -> "MeterSnapshot":
        return MeterSnapshot(*_values(self))


@dataclass(frozen=True)
class MeterSnapshot:
    """Immutable counter values (or counter deltas)."""

    disk_reads: int = 0
    disk_writes: int = 0
    server_to_client: int = 0
    rpcs: int = 0
    rpc_bytes: int = 0
    client_faults: int = 0
    client_hits: int = 0
    server_faults: int = 0
    server_hits: int = 0
    swap_faults: int = 0
    handles_allocated: int = 0
    handles_unreferenced: int = 0
    records_moved: int = 0
    io_faults: int = 0
    io_failures: int = 0

    def __sub__(self, other: "MeterSnapshot") -> "MeterSnapshot":
        return MeterSnapshot(*map(sub, _values(self), _values(other)))

    def __add__(self, other: "MeterSnapshot") -> "MeterSnapshot":
        return MeterSnapshot(*map(add, _values(self), _values(other)))

    @property
    def client_miss_rate(self) -> float:
        """Client-cache miss rate in [0, 1] (``CCMissrate`` in Figure 3)."""
        accesses = self.client_hits + self.client_faults
        if accesses == 0:
            return 0.0
        return self.client_faults / accesses

    @property
    def server_miss_rate(self) -> float:
        """Server-cache miss rate in [0, 1] (``SCMissrate`` in Figure 3)."""
        accesses = self.server_hits + self.server_faults
        if accesses == 0:
            return 0.0
        return self.server_faults / accesses


#: The meters, in declaration order -- the positional order of
#: ``MeterSnapshot(...)`` -- and the one getter that reads them all off a
#: :class:`CounterSet` or a :class:`MeterSnapshot`.  Every statement
#: snapshots and subtracts the meters, so neither walks ``fields()``.
_NAMES = tuple(f.name for f in fields(MeterSnapshot))
if _NAMES != tuple(f.name for f in fields(CounterSet)):
    raise TypeError("CounterSet and MeterSnapshot declare different meters")
_values = attrgetter(*_NAMES)
_ZEROED = dict.fromkeys(_NAMES, 0)
