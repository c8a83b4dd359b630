"""Fixture: exactly one DET violation — a collector switch thrown
outside the host module (process-global, and nobody thaws it)."""

import gc


def before_the_cells() -> None:
    gc.freeze()  # the violation
