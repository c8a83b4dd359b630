"""Pinned on-disk bytes of tiny Derby loads.

The wall-clock digests and ``chaos_digests.json`` pin *simulated*
outcomes (rows, elapsed time, meters).  Nothing in them sees the bytes:
a record writer that pads a string differently, a header that orders its
slots differently or a B-tree leaf with another stride would charge the
same and still be a different disk format.  ``disk_format_pins.json``
holds, for a tiny 1:3 and a tiny 1:1000 database under every clustering
x ``index_first`` x ``logged_load``, a sha256 over every page of every
file -- ``Page.capture()``: the slot directory with each record's bytes,
each forwarding rid and each deleted slot, the bytes used, the page LSN
-- in file and page order.

A change that means to alter the format regenerates the table and says
so; any other change must leave it alone::

    PYTHONPATH=src python tests/test_disk_format_pins.py --update
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering

PINS_PATH = pathlib.Path(__file__).parent / "disk_format_pins.json"

#: name -> (maker, scale): 100 providers x 300 patients with inline
#: ``clients`` sets; 2 providers x 1,000 patients whose sets spill to
#: the collection file.
DATABASES = {
    "1to3": (DerbyConfig.db_1to3, 0.0001),
    "1to1000": (DerbyConfig.db_1to1000, 0.0005),
}

CASES = [
    (database, clustering, index_first, logged_load)
    for database in DATABASES
    for clustering in Clustering
    for index_first in (True, False)
    for logged_load in (False, True)
]


def case_key(database, clustering, index_first, logged_load) -> str:
    return (
        f"{database}/{clustering.value}/"
        f"{'index_first' if index_first else 'index_after'}/"
        f"{'logged' if logged_load else 'unlogged'}"
    )


def disk_fingerprint(disk) -> str:
    """sha256 over every page image of every file, in physical order."""
    sha = hashlib.sha256()
    for file_id in disk.file_ids():
        for page in disk.iter_pages(file_id):
            sha.update(repr((file_id, page.page_no, page.capture())).encode())
    return sha.hexdigest()


def load_fingerprint(database, clustering, index_first, logged_load) -> str:
    maker, scale = DATABASES[database]
    config = maker(
        scale=scale, clustering=clustering,
        index_first=index_first, logged_load=logged_load,
    )
    return disk_fingerprint(load_derby(config).db.disk)


@pytest.mark.parametrize(
    "case", CASES, ids=[case_key(*case) for case in CASES]
)
def test_disk_bytes_are_pinned(case):
    pins = json.loads(PINS_PATH.read_text())
    key = case_key(*case)
    assert key in pins, f"no pin for {key}: run this file with --update"
    assert load_fingerprint(*case) == pins[key], (
        f"the on-disk bytes of {key} moved.  If the disk format was meant "
        "to change, regenerate with\n"
        "    PYTHONPATH=src python tests/test_disk_format_pins.py --update\n"
        "and declare the format change; otherwise this is a regression."
    )


def test_every_pin_has_a_case():
    pins = json.loads(PINS_PATH.read_text())
    assert sorted(pins) == sorted(case_key(*case) for case in CASES)


def test_fingerprint_sees_a_single_byte():
    maker, scale = DATABASES["1to3"]
    disk = load_derby(maker(scale=scale)).db.disk
    before = disk_fingerprint(disk)
    page = disk.peek_page(disk.file_ids()[0], 0)
    slot = page.slots()[-1]
    record = page.read(slot)
    assert page.update(slot, record[:-1] + bytes([record[-1] ^ 1]))
    assert disk_fingerprint(disk) != before


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit(__doc__)
    table = {case_key(*case): load_fingerprint(*case) for case in CASES}
    PINS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} pins to {PINS_PATH}")
