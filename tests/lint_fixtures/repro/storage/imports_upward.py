"""Fixture: exactly one LAYER violation — storage importing exec."""

from repro.exec import ALGORITHMS  # the violation


def has_phj():
    return "PHJ" in ALGORITHMS
