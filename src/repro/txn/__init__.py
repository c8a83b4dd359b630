"""Transactions: WAL, locks, per-transaction object budgets, and the
transaction-off loading mode.

Section 3.2 of the paper is a tour of exactly these mechanisms:

* creating too many objects within one transaction raises the simulated
  "out of memory" (commit every ~10,000 objects);
* the *transaction-off* mode removes the log and the read/write locks,
  "allowing to load large databases faster" — used for loading only,
  never for measured queries.

One logging mode per purpose: the loader's ``TransactionManager(db)``
logs cost-only, and every session, shard and fuzz runs on
``TransactionManager(db, recovery=True)``, whose WAL carries physical
page images, so an abort always undoes and :mod:`repro.recovery` can
crash and restart the system — which is what makes the transaction-off
trade-off demonstrable rather than merely priced.

``begin(isolation="si")`` opens a *snapshot-isolation* transaction on
top of the same machinery: reads resolve through per-record version
chains (:mod:`repro.txn.mvcc`) with zero read locks, writers keep
strict-2PL X-locks, and first-committer-wins conflicts raise
:class:`~repro.errors.WriteConflictError` (see ``docs/mvcc.md``).
"""

from repro.txn.locks import LockManager, LockMode
from repro.txn.log import LogRecord, WriteAheadLog
from repro.txn.manager import ISOLATION_LEVELS, Transaction, TransactionManager
from repro.txn.mvcc import RecordVersion, Snapshot, SnapshotView, VersionStore

__all__ = [
    "WriteAheadLog",
    "LogRecord",
    "LockManager",
    "LockMode",
    "Transaction",
    "TransactionManager",
    "ISOLATION_LEVELS",
    "Snapshot",
    "SnapshotView",
    "RecordVersion",
    "VersionStore",
]
