"""Physical record identifiers.

O2's ``Rid`` is a physical disk address (paper, Section 4.1: "Rids (for
Record identifiers) correspond to physical addresses on disks").  Sorting
rids therefore sorts by physical position — the property the paper's
*sorted unclustered index scan* (Figure 8) exploits.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple


class Rid(NamedTuple):
    """A physical record address: file, page within the file, slot within
    the page.

    Tuple ordering is exactly physical disk order, so ``sorted(rids)``
    yields the sequential access pattern of Figure 8's sorted index scan.
    """

    file_id: int
    page_no: int
    slot: int

    #: Bytes one rid occupies on disk or in an index leaf (paper,
    #: Section 2: "8 per address or object identifier").
    DISK_SIZE = 8

    def __repr__(self) -> str:  # compact, log-friendly
        return f"@{self.file_id}:{self.page_no}.{self.slot}"


#: ``Rid`` from an iterable of its three fields, with no Python-level
#: call: ``Rid(*fields)`` and ``Rid._make`` both run the named tuple's own
#: Python ``__new__`` first, which the record and leaf decoders and
#: ``StorageFile.insert`` cannot afford per rid.
rid_of = partial(tuple.__new__, Rid)

#: A rid that is never allocated; used as the encoding of a nil reference.
NIL_RID = Rid(-1, -1, -1)


def is_nil(rid: Rid) -> bool:
    """True if ``rid`` encodes a nil reference."""
    return rid == NIL_RID
