"""The host process around the simulation: CPython's cyclic collector.

Simulated time cannot see the collector, but host time pays for it.
``generate`` and a bulk load allocate hundreds of thousands of
long-lived container objects and free none of them, so every young
collection they trigger walks live data and every full one walks the
whole database: at scale 0.2 that was 3,105 / 282 / 6 collections inside
one ``load_derby``, 40 % of its wall time, for nothing reclaimed
(docs/benchmarking-tips.md, "The host clock").  The paper's Section 3.2
cure for its own load was to switch off the machinery a load does not
need; this is ours.

This is the one module of ``repro`` that names ``gc`` (simlint DET
holds the rest of the tree to that): it sits in the lowest layer so
``derby``, ``cluster`` and ``bench`` may all import it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for the bracket; put it back as found.

    Brackets nest, and a caller who had already disabled the collector
    gets it back disabled: only the bracket that found it enabled
    re-enables it.  Reference counting still frees everything acyclic
    as it goes; cycles made inside wait for the first collection after
    the outermost bracket.  Usable as a decorator, which is a fresh
    bracket per call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
