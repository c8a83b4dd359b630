"""Cost-model constants for the simulated O2-style system.

Each constant is calibrated against a number the paper states or lets us
derive:

* ``page_read_ms = 10`` — "assuming 10ms per page read" (Section 4.2).
* ``handle_get_us + handle_unref_us ~= 125 us`` — the paper derives ~250 s
  of non-I/O time for a full scan of 2 M patients (Section 4.2), i.e.
  about 125 us of handle traffic per object.
* ``result_append_txn_us ~= 600 us`` — "the cost of constructing a
  collection of 1.8 millions integers is ... about 1100 seconds"
  (Section 4.2), i.e. ~0.6 ms per element in standard transaction mode.
* the memory model reproduces Figure 10's swap thresholds: hash tables of
  14.5 MB fit, tables of 57.6 MB and up swap.

Absolute wall-clock fidelity to a 1999 Sparc 20 is a non-goal (DESIGN.md,
Section 6); these constants exist so that the *shape* of every figure —
who wins, by what factor, where the crossovers sit — is reproduced by the
same mechanism the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.units import MB, PAGE_SIZE


@dataclass(frozen=True)
class MemoryModel:
    """RAM budget of the simulated machine (paper, Section 2: a Sparc 20
    with 128 MB of RAM, 4 MB server cache, 32 MB client cache, plus an
    unquantified slice for Solaris, AFS and the twm window manager).

    ``scale`` shrinks every budget by the same factor as the database so
    cache-hit ratios and swap thresholds are preserved (DESIGN.md §5).
    """

    ram_bytes: int = 128 * MB
    server_cache_bytes: int = 4 * MB
    client_cache_bytes: int = 32 * MB
    system_reserved_bytes: int = 52 * MB
    page_size: int = PAGE_SIZE

    def scaled(self, scale: float) -> "MemoryModel":
        """Return a copy with all budgets multiplied by ``scale``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return MemoryModel(
            ram_bytes=max(self.page_size, int(self.ram_bytes * scale)),
            server_cache_bytes=max(
                self.page_size, int(self.server_cache_bytes * scale)
            ),
            client_cache_bytes=max(
                self.page_size, int(self.client_cache_bytes * scale)
            ),
            system_reserved_bytes=int(self.system_reserved_bytes * scale),
            page_size=self.page_size,
        )

    @property
    def server_cache_pages(self) -> int:
        return max(1, self.server_cache_bytes // self.page_size)

    @property
    def client_cache_pages(self) -> int:
        return max(1, self.client_cache_bytes // self.page_size)

    @property
    def query_memory_bytes(self) -> int:
        """RAM available to query working structures (hash tables, sort
        runs) once the caches and the system slice are accounted for.

        With the defaults this is 40 MB, which reproduces Figure 10's
        finding that a 14.5 MB hash table fits while 57.6 MB tables swap.
        """
        free = (
            self.ram_bytes
            - self.server_cache_bytes
            - self.client_cache_bytes
            - self.system_reserved_bytes
        )
        return max(0, free)


@dataclass(frozen=True)
class CostParams:
    """Every modeled cost constant, in the unit its name states."""

    # --- I/O and client-server traffic -------------------------------
    #: Disk page read into the server cache (paper: 10 ms/page).
    page_read_ms: float = 10.0
    #: Disk page write from the server cache.
    page_write_ms: float = 10.0
    #: Page transfer server cache -> client cache.
    page_transfer_ms: float = 1.0
    #: Fixed overhead per client/server RPC.
    rpc_overhead_ms: float = 0.2
    #: Base delay before re-trying a transient page-read fault; the
    #: disk doubles it per attempt (bounded retry-with-backoff, see
    #: ``DiskManager.read_page``).
    io_retry_backoff_ms: float = 2.0
    #: Extra penalty per page when the OS swaps query working memory
    #: (thrashing reads *and* dirty-page writes, hence > page_read_ms;
    #: calibrated so Figure 12's 90/90 cell reproduces the paper's
    #: NOJOIN < NL < PHJ < CHJ ordering).
    swap_fault_ms: float = 40.0

    # --- handles (Section 4.4: the 60-byte representative) -----------
    #: Allocate + fill a full object handle ("get Handle h").
    handle_get_us: float = 80.0
    #: Unreference (and eventually free) a full handle.
    handle_unref_us: float = 45.0
    #: Same operations for the compact literal handle of the paper's
    #: proposed improvement (Section 4.4).
    compact_handle_get_us: float = 8.0
    compact_handle_unref_us: float = 4.0
    #: Multiplier applied to handle costs when handles are allocated in
    #: bulk for a whole page of objects (Section 4.4 proposal).
    bulk_handle_factor: float = 0.15

    # --- CPU micro-operations ----------------------------------------
    #: Compare two integers / two rids.
    compare_us: float = 0.05
    #: Per-element, per-log2(n) coefficient of an in-memory sort.
    sort_per_element_log_us: float = 0.35
    #: Insert an entry into a query hash table.
    hash_insert_us: float = 2.0
    #: Probe a query hash table.
    hash_probe_us: float = 1.2
    #: Decode one attribute from an on-page record.
    attr_decode_us: float = 0.8
    #: Evaluate one predicate term.
    predicate_us: float = 0.3

    # --- result construction (Section 4.2 arithmetic) ----------------
    #: Append an element to a query result under standard transaction
    #: mode (the result collection is built as if it could persist).
    result_append_txn_us: float = 600.0
    #: Append when the result is a transient, non-persistent value.
    result_append_us: float = 5.0

    # --- loading / transactions (Section 3.2) ------------------------
    #: Encode + insert one new object record.
    object_create_us: float = 120.0
    #: Per-record WAL append (amortized CPU; the flush is charged as
    #: page writes at commit time).
    log_append_us: float = 15.0
    #: Per-record CPU to scan or apply a log record during rollback and
    #: ARIES restart (analysis/redo/undo passes).
    log_apply_us: float = 10.0
    #: Acquire/release one lock.
    lock_us: float = 4.0
    #: Commit bookkeeping, per transaction.
    commit_ms: float = 5.0
    #: Move (reallocate) one object record on disk, e.g. when its header
    #: grows to gain index slots (Section 3.2's expensive re-indexing).
    record_move_us: float = 150.0

    # --- multi-version concurrency (Section 4.4 versioning weight) ---
    #: Copy a record's pre-image into its version chain on first update
    #: (one extra record materialization per record per writer txn).
    version_stash_us: float = 30.0
    #: Resolve a rid through the version chain to the snapshot-visible
    #: version (chain walk + record swap into a fresh handle).
    version_read_us: float = 12.0
    #: Examine one chain entry during the governed GC sweep.
    version_gc_us: float = 1.0

    memory: MemoryModel = field(default_factory=MemoryModel)

    def __post_init__(self) -> None:
        """No price is negative.  Checked here, once per (frozen)
        instance, because the per-row charge sites add these prices
        into ``SimClock.buckets`` in place, past ``charge_us``'s own
        sign check."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "memory" and value < 0:
                raise ValueError(f"negative charge: {f.name} = {value}")

    def scaled(self, scale: float) -> "CostParams":
        """Return a copy whose memory model is scaled; time constants are
        per-operation and therefore scale-free."""
        return replace(self, memory=self.memory.scaled(scale))

    def remote_workstation(self) -> "CostParams":
        """Client and server on *different* machines (Figure 3's
        ``sameworkstation = false``): RPCs cross a LAN instead of a
        local socket, so per-round-trip overhead and page transfer both
        grow by an order of magnitude.  Disk and CPU are unchanged."""
        return replace(
            self,
            rpc_overhead_ms=self.rpc_overhead_ms * 10,
            page_transfer_ms=self.page_transfer_ms * 10,
        )
