"""Two-tier buffer management (O2's client-server architecture).

O2 runs a page server: the *server cache* sits in front of the disk, the
*client cache* sits in the application process, and pages travel between
them over RPCs (paper, Sections 2 and 3.5).  The paper's measurements —
``RPCsnumber``, ``D2SCreadpages``, ``SC2CCreadpages``, the two miss rates
(Figure 3) — are exactly the counters this package maintains.

The cache-size observation of Section 3.2 ("the number of IOs depends on
the largest cache size, independently of its function") falls out of the
mechanism: a page found in either tier never reaches the disk.
"""

from repro.buffer.cache import BufferCache
from repro.buffer.client_server import ClientServerSystem

__all__ = ["BufferCache", "ClientServerSystem"]
