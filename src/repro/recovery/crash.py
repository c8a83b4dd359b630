"""Crash-point fault injection.

A :class:`CrashInjector` arms hooks inside the write-ahead log and the
disk manager and kills the system — by raising
:class:`~repro.errors.SimulatedCrashError` — at a *named* crash point
the n-th time it is reached.  The points cover the places where a real
recovery protocol earns its keep:

``log-append``
    mid log-append: the record is in the volatile log buffer, nothing
    reached disk.
``commit-flush``
    mid multi-page commit flush: only a prefix of the pending records'
    log pages was written, so the durable boundary lands *inside* the
    flush — the torn commit.
``flush-write-gap``
    between the WAL-rule log flush and the data-page write: the log says
    the change happened, the page still holds the old version.
``checkpoint``
    mid checkpoint: dirty pages were flushed but the checkpoint record
    itself was lost.
``mix-run``
    mid concurrent run (a :class:`~repro.service.WorkloadMixer` or any
    scheduled workload): fires on a log append while several sessions
    are in flight.

After the injector fires, every further hook refuses service with the
same exception, so the rest of the workload cannot mutate durable state
"after" the crash.  :func:`crash_database` then performs the actual loss
of volatility: caches, lock table, open transactions and the unflushed
log tail vanish; the disk reverts every page to its last written image.
"""

from __future__ import annotations

from repro.errors import RecoveryError, SimulatedCrashError

#: The named crash points, in the order the tentpole lists them.
CRASH_POINTS = (
    "log-append",
    "commit-flush",
    "flush-write-gap",
    "checkpoint",
    "mix-run",
)


class NamedPointInjector:
    """Fires the ``occurrence``-th time its named ``point`` is reached.

    The base of every named-point injector.  It owns what they share —
    point validation, the ``seen`` / ``occurrence`` / ``fired`` counting
    and the WAL / disk hook protocol (``on_append`` / ``on_flush`` /
    ``on_page_write`` / ``on_checkpoint`` / ``disarm``), under which an
    installed injector is a pure *down-detector*: once fired, every
    further durable mutation is refused with
    :class:`~repro.errors.SimulatedCrashError` until the actual loss of
    volatile state is performed.  A subclass names its :attr:`POINTS`;
    the kinds differ only in :meth:`kill` — what dies: the whole system
    (the default), the whole cluster or a single node.
    """

    #: The points this kind of injector can be armed at.
    POINTS: tuple[str, ...] = ()
    #: What a fired injector has taken down, for messages.
    SCOPE = "system"

    def __init__(self, point: str, occurrence: int = 1):
        if point not in self.POINTS:
            raise RecoveryError(
                f"unknown {type(self).__name__} point {point!r}; choose "
                f"from {self.POINTS}"
            )
        if occurrence < 1:
            raise RecoveryError(f"occurrence must be >= 1, got {occurrence}")
        self.point = point
        self.occurrence = occurrence
        self.seen = 0
        self.fired = False

    def reached(self, point: str, detail) -> None:
        """Report one arrival at ``point``; the ``occurrence``-th
        arrival at the armed point fires, passing ``detail`` (what was
        in flight) on to :meth:`kill`."""
        self._down()
        if self._due(point):
            self.fire(detail)

    def fire(self, detail) -> None:
        """Mark the injector fired and kill.  Called by :meth:`reached`,
        and by the WAL itself once a torn flush wrote its page budget."""
        self.fired = True
        self.kill(detail)

    def kill(self, detail) -> None:
        raise SimulatedCrashError(
            f"simulated crash at {self.point} (occurrence {self.seen}: {detail})"
        )

    def disarm(self, db, wal) -> None:
        if wal.injector is self:
            wal.injector = None
        if db.disk.injector is self:
            db.disk.injector = None

    def _due(self, point: str) -> bool:
        """Count one arrival; true on exactly the ``occurrence``-th."""
        if self.fired or point != self.point:
            return False
        self.seen += 1
        return self.seen == self.occurrence

    def _down(self) -> None:
        if self.fired:
            raise SimulatedCrashError(
                f"{self.SCOPE} is down (crashed at {self.point})"
            )

    # -- hooks (called by WriteAheadLog / DiskManager / checkpoint) ------

    def on_append(self, record) -> None:
        self._down()

    def on_flush(self, pages_needed: int) -> int | None:
        """Return a page budget to tear the flush, or ``None`` to let it
        complete."""
        self._down()
        return None

    def on_page_write(self, page_key: tuple[int, int]) -> None:
        self._down()

    def on_checkpoint(self) -> None:
        self._down()


class CrashInjector(NamedPointInjector):
    """Kills the system the ``occurrence``-th time ``point`` is reached:
    its points *are* the WAL / disk hooks."""

    POINTS = CRASH_POINTS

    def arm(self, db, wal) -> None:
        """Attach to a database's log and disk."""
        wal.injector = self
        db.disk.injector = self

    def on_append(self, record) -> None:
        # A mix-run crash is a log append landing mid concurrent run.
        point = "mix-run" if self.point == "mix-run" else "log-append"
        self.reached(point, f"record lsn={record.lsn} kind={record.kind}")

    def on_flush(self, pages_needed: int) -> int | None:
        """The log writes the budgeted pages and then calls
        :meth:`fire`, so a durable record prefix survives."""
        self._down()
        if pages_needed >= 1 and self._due("commit-flush"):
            return pages_needed // 2  # 0 for single-page flushes
        return None

    def on_page_write(self, page_key: tuple[int, int]) -> None:
        self.reached("flush-write-gap", f"page {page_key} never written")

    def on_checkpoint(self) -> None:
        self.reached("checkpoint", "pages flushed, checkpoint record lost")


def crash_database(db, txm=None) -> None:
    """Lose everything volatile, keeping only durable state.

    Order matters: the log is truncated to its durable boundary first
    (so nothing later can consult unflushed records), then the caches,
    handle table, open transactions and lock table evaporate, and
    finally the disk reverts every page to its last written image.
    No simulated time is charged — power cuts are free.
    """
    wal = txm.log if txm is not None else db.disk.wal
    if wal is not None:
        injector = wal.injector
        if injector is not None:
            injector.disarm(db, wal)
        wal.crash()
    db.disk.injector = None
    db.system.crash_volatile()
    db.handles.clear()
    if txm is not None:
        txm.crash_volatile()
    db.disk.crash()
