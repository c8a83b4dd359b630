"""Fixture: the host module — the one place DET lets the collector's
switches be thrown."""

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
