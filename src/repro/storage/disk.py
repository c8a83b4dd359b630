"""The simulated disk.

A :class:`DiskManager` owns a set of numbered files, each a list of
:class:`~repro.storage.page.Page` objects.  Reading or writing a page
through it charges simulated I/O latency (10 ms per page by default, the
paper's own assumption) and bumps the shared counters.

Higher layers never touch the disk directly during query execution; they
go through a :class:`Pager` (normally the two-tier buffer system of
:mod:`repro.buffer`), which decides *whether* a disk access happens.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from repro.errors import PermanentIOError, StorageError
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.page import Page, PageImage
from repro.units import PAGE_SIZE

_IO = Bucket.IO


class Pager(Protocol):
    """What the record layer needs from a page source."""

    #: ``True`` for a pager that keeps the pages it hands out and writes
    #: the dirty ones back later: a page just returned by ``get_page`` is
    #: then resident and most recently used, and ``Page.dirty`` (which
    #: every ``Page`` mutator sets) is all the notice it needs, so the
    #: caller may skip ``mark_dirty`` for it.  A freshly allocated page
    #: is unknown to the pager and must always be announced.
    write_back: bool

    def get_page(self, file_id: int, page_no: int) -> Page:
        """Return the page, charging whatever traffic that implies."""
        ...

    def mark_dirty(self, file_id: int, page_no: int) -> None:
        """Note that the page was modified and must eventually be written."""
        ...


class DiskManager:
    """All files of one simulated database volume."""

    def __init__(
        self,
        params: CostParams | None = None,
        clock: SimClock | None = None,
        counters: CounterSet | None = None,
    ):
        self.params = params or CostParams()
        self.clock = clock or SimClock()
        self.counters = counters or CounterSet()
        self.page_size = PAGE_SIZE
        self._files: dict[int, list[Page]] = {}
        self._next_file_id = 0
        #: The write-ahead log whose durability the WAL rule must respect
        #: before writing a stamped page (set by a recovery-mode
        #: :class:`~repro.txn.manager.TransactionManager`).
        self.wal = None
        #: Optional :class:`~repro.recovery.CrashInjector` hook.
        self.injector = None
        #: Optional :class:`~repro.recovery.TransientFaultInjector`:
        #: consulted per read attempt; a faulted read is retried with
        #: exponential backoff up to :attr:`read_retry_limit` times and
        #: then escalated to :class:`~repro.errors.PermanentIOError`.
        self.faults = None
        #: Retries before a persistently faulting read is escalated.
        self.read_retry_limit = 3
        # What actually survives a crash.  Page objects are shared with
        # the caches and mutated in place, so the content that is truly
        # on disk is the image captured at the last write_page() call.
        self._durable: dict[tuple[int, int], PageImage] = {}

    # -- file management ------------------------------------------------

    def create_file(self) -> int:
        """Allocate a new, empty file and return its id."""
        file_id = self._next_file_id
        self._next_file_id += 1
        self._files[file_id] = []
        return file_id

    # simlint: ok[CHARGE] catalog metadata, not a page access
    def num_pages(self, file_id: int) -> int:
        """Pages currently allocated to ``file_id``."""
        return len(self._file(file_id))

    def total_pages(self) -> int:
        """Pages allocated across all files (disk occupancy)."""
        return sum(len(pages) for pages in self._files.values())

    def allocate_page(self, file_id: int) -> Page:
        """Append a fresh page to ``file_id`` (no I/O is charged: new
        pages materialize in memory and are written at flush time)."""
        pages = self._file(file_id)
        page = Page(file_id, len(pages), self.page_size)
        pages.append(page)
        return page

    # -- physical I/O (charged) ------------------------------------------

    def read_page(self, file_id: int, page_no: int) -> Page:
        """Read one page from disk: charges latency, counts the read.

        When a :attr:`faults` injector is armed, each attempt may suffer
        a seeded transient fault: the read is charged anyway (the
        controller noticed the error only after the transfer), a backoff
        delay doubling per attempt is charged, and the read is retried.
        Past :attr:`read_retry_limit` retries the fault is treated as
        permanent and :class:`~repro.errors.PermanentIOError` aborts the
        operation.
        """
        page = self._page(file_id, page_no)
        self.counters.disk_reads += 1
        self.clock.charge_ms(_IO, self.params.page_read_ms)
        if self.faults is not None:
            attempt = 0
            while self.faults.read_fails(file_id, page_no, attempt):
                self.counters.io_faults += 1
                attempt += 1
                if attempt > self.read_retry_limit:
                    self.counters.io_failures += 1
                    raise PermanentIOError(
                        f"page ({file_id}, {page_no}): read failed "
                        f"{attempt} times (transient fault escalated)"
                    )
                self.clock.charge_ms(
                    _IO,
                    self.params.io_retry_backoff_ms * (2 ** (attempt - 1)),
                )
                self.counters.disk_reads += 1
                self.clock.charge_ms(_IO, self.params.page_read_ms)
        return page

    def write_page(self, file_id: int, page_no: int) -> None:
        """Write one page back to disk: charges latency, counts the write.

        Enforces the WAL rule first: the log record that last stamped
        this page must be durable before the page version it produced
        reaches disk, so a forced log flush may be charged here.
        """
        page = self._page(file_id, page_no)
        if self.wal is not None and page.page_lsn > self.wal.durable_lsn:
            self.wal.forced_flushes += 1
            self.wal.flush()
        if self.injector is not None:
            self.injector.on_page_write((file_id, page_no))
        page.dirty = False
        self.counters.disk_writes += 1
        self.clock.charge_ms(_IO, self.params.page_write_ms)
        self._durable[(file_id, page_no)] = page.capture()
        if self.wal is not None:
            self.wal.note_page_written((file_id, page_no))

    # -- unaccounted access (loader bookkeeping, assertions, tests) -------

    # simlint: ok[CHARGE] the documented unaccounted peephole (tests, reports)
    def peek_page(self, file_id: int, page_no: int) -> Page:
        """Access a page without charging I/O.  Only for code that is
        explicitly outside the measured system (test assertions, report
        generation)."""
        return self._page(file_id, page_no)

    # simlint: ok[CHARGE] the documented unaccounted peephole (tests, reports)
    def iter_pages(self, file_id: int) -> Iterator[Page]:
        """Iterate a file's pages without charging I/O (see peek_page)."""
        return iter(self._file(file_id))

    # -- crash semantics (recovery) ----------------------------------------

    def crash(self) -> None:
        """Lose everything volatile: every page reverts to the image of
        its last :meth:`write_page`; pages that were allocated but never
        written vanish (the file shrinks back to its durable tail).

        No I/O is charged — a power cut is free.  Bookkeeping such as
        file ids and page counts of *written* pages survives, exactly as
        a real volume's metadata would.  Each file's page list is
        refilled in place: a :class:`~repro.storage.file.StorageFile`
        holds on to it across the crash.
        """
        durable_tail: dict[int, int] = {}
        for file_id, page_no in self._durable:
            tail = durable_tail.get(file_id, 0)
            durable_tail[file_id] = max(tail, page_no + 1)
        for file_id in self._files:
            n = durable_tail.get(file_id, 0)
            pages = []
            for page_no in range(n):
                page = Page(file_id, page_no, self.page_size)
                image = self._durable.get((file_id, page_no))
                if image is not None:
                    page.restore(image)
                pages.append(page)
            self._files[file_id][:] = pages

    # -- internals ---------------------------------------------------------

    def _file(self, file_id: int) -> list[Page]:
        try:
            return self._files[file_id]
        except KeyError:
            raise StorageError(f"no such file: {file_id}") from None

    def _page(self, file_id: int, page_no: int) -> Page:
        pages = self._file(file_id)
        if not 0 <= page_no < len(pages):
            raise StorageError(
                f"file {file_id} has {len(pages)} pages, no page {page_no}"
            )
        return pages[page_no]
