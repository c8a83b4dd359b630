"""Page-based storage substrate.

This package simulates the disk layer of an O2-style object store:

* :class:`~repro.storage.rid.Rid` — a *physical* record identifier
  (file, page, slot), the paper's ``@``-prefixed addresses (Figure 2).
* :class:`~repro.storage.page.Page` — a 4 KB slotted page.
* :class:`~repro.storage.disk.DiskManager` — the simulated disk: a set of
  files of pages, with I/O counters and simulated read/write latency.
* :class:`~repro.storage.file.StorageFile` — a heap file of records with
  creation-order placement (objects are located on files according to
  their creation time — paper, Section 3.2), growth slack, record moves
  with forwarding.
"""

from repro.storage.disk import DiskManager, Pager
from repro.storage.file import StorageFile
from repro.storage.page import Page
from repro.storage.rid import Rid

__all__ = [
    "Rid",
    "Page",
    "DiskManager",
    "Pager",
    "StorageFile",
]
