"""The two per-object structures a load holds: the logical database
``generate`` returns and a logged load's lock table.

* ``generate`` returns columns (``repro.derby.generator``).  A digest
  over every column, at two small scales, pins them to what the
  row-wise generator they replaced produced, value for value and in
  order: every load reads them, so a moved value moves a pin somewhere
  far from its cause.
* ``tracemalloc`` budgets hold the host memory of each: the logical
  database of a 1:3 database at ≤ 100 bytes per object (it was 307 as
  one object per row), and an uncontended exclusive lock, which a logged
  load takes per object it creates, at ≤ 150 bytes (it was 398).
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

from repro.derby import DerbyConfig, generate
from repro.simtime import CostParams, SimClock
from repro.storage.rid import Rid
from repro.txn import LockManager, LockMode

#: Every column of a logical database but the CSR, which is compared as
#: each provider's list of patients.
COLUMNS = (
    "upin", "provider_name", "address", "specialty", "office",
    "mrn", "patient_name", "age", "sex", "random_integer", "num", "owner",
)

#: sha256 of :func:`column_digest` at scale 0.001, taken from the
#: row-wise generator (one object per provider and per patient, a
#: ``patient_idxs`` list per provider) before the columns replaced it.
GENERATE_DIGESTS = {
    "1:3": "3847f26ed64db0664cc6b3549911be20d89809c0a247753b56a0dfd665c61715",
    "1:1000": "eb3313d4aa3b2c9ac8c824b2037b9be2cd1c25c9c215101034293eb304819f1d",
}


def column_digest(logical) -> str:
    columns = {name: list(getattr(logical, name)) for name in COLUMNS}
    columns["patients_of"] = [
        list(logical.patients_of(i)) for i in range(logical.n_providers)
    ]
    text = json.dumps(columns, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("relationship", sorted(GENERATE_DIGESTS))
def test_generate_is_pinned_column_by_column(relationship):
    logical = generate(DerbyConfig.paper_db(relationship, "class", scale=0.001))
    assert column_digest(logical) == GENERATE_DIGESTS[relationship]


def _traced_bytes(build) -> tuple[int, object]:
    """Bytes ``build()`` leaves allocated, and what it returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return tracemalloc.get_traced_memory()[0] - before, built
    finally:
        tracemalloc.stop()


def test_generate_holds_at_most_100_bytes_per_object():
    config = DerbyConfig.db_1to3(scale=0.006)
    held, __ = _traced_bytes(lambda: generate(config))
    per_object = held / (config.n_providers + config.n_patients)
    assert per_object <= 100, f"generate holds {per_object:.1f} B/object"


def test_an_uncontended_x_lock_holds_at_most_150_bytes():
    n = 10_000
    locks = LockManager(SimClock(), CostParams())
    rids = [Rid(3, k // 50, k % 50) for k in range(n)]
    txn_id = 12_345

    def lock_all() -> None:
        for rid in rids:
            locks.acquire(txn_id, rid, LockMode.EXCLUSIVE)

    held, __ = _traced_bytes(lock_all)
    assert locks.lock_count == n
    assert held / n <= 150, f"an uncontended X lock holds {held / n:.1f} B"
    assert locks.release_all(txn_id) == n
    assert locks.lock_count == 0
