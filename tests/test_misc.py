"""Small-surface coverage: table formatting, units, error hierarchy,
exports with custom axes."""

from __future__ import annotations

import pytest

from repro import errors
from repro.stats.report import Table, _fmt
from repro.simtime import MeterSnapshot
from repro.stats import StatsDatabase, to_gnuplot
from repro.units import KB, MB, PAGE_SIZE, pages_for_bytes


class TestTableFormatting:
    def test_float_formats_by_magnitude(self):
        assert _fmt(0.0) == "0"
        assert _fmt(0.1234) == "0.1234"
        assert _fmt(1.234) == "1.23"
        assert _fmt(123.456) == "123.5"
        assert _fmt(-2.5) == "-2.50"

    def test_int_and_str_pass_through(self):
        assert _fmt(42) == "42"
        assert _fmt("NL") == "NL"

    def test_empty_table_renders(self):
        table = Table("Empty", ["a", "b"])
        text = table.render()
        assert "Empty" in text
        assert "a" in text and "b" in text


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert PAGE_SIZE == 4 * KB

    def test_roundtrip(self):
        assert pages_for_bytes(7 * PAGE_SIZE) == 7


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_storage_family(self):
        assert issubclass(errors.PageFullError, errors.StorageError)
        assert issubclass(errors.RecordNotFoundError, errors.StorageError)
        assert issubclass(errors.RecordTooLargeError, errors.StorageError)

    def test_query_family(self):
        assert issubclass(errors.OQLSyntaxError, errors.QueryError)
        assert issubclass(errors.PlanError, errors.QueryError)

    def test_txn_family(self):
        assert issubclass(errors.TransactionMemoryError, errors.TransactionError)
        assert issubclass(errors.LockConflictError, errors.TransactionError)

    def test_catchability(self):
        """Library failures are catchable without swallowing built-ins."""
        with pytest.raises(errors.ReproError):
            raise errors.DuplicateIndexError("x")
        assert not issubclass(errors.IndexError_, IndexError)


class TestGnuplotAxes:
    def test_custom_axes(self):
        stats = StatsDatabase()
        for pages, seconds in ((10, 1.0), (20, 2.0)):
            stats.record_experiment(
                algo="A",
                cluster="c",
                elapsed_s=seconds,
                meters=MeterSnapshot(disk_reads=pages),
            )
        dat = to_gnuplot(stats.rows(), x="d2sc_pages", y="elapsed_s")
        assert "10 1" in dat
        assert "20 2" in dat
