"""Fixture: exactly one LAYER violation — storage importing exec."""

from repro.exec import ALGORITHMS  # the violation


def delegate(q):
    return ALGORITHMS["PHJ"](q)
