"""Writes checked against a serial model: sessions of one query service,
interleaved at random, at 2PL and at SI.

Two sessions share one ``QueryService`` over a tiny Derby (10
providers, 30 patients; two of them are written).  Each rule runs one
operation of one session through ``QueryService.immediate``, so lock
conflicts are fail-fast and switching sessions between rules is the
interleaving.  A session keeps its transaction open across rules.

The model is a dict of committed ages plus, per open transaction, its
writes and its locks (2PL) or its snapshot of the committed ages (SI):

* a read returns the transaction's own write, else the committed age
  (2PL, under a shared lock) or the snapshot's age (SI);
* a write that another open transaction's lock forbids raises
  ``LockConflictError``; under SI, a write to an age committed after the
  snapshot was taken raises ``WriteConflictError`` (first committer
  wins); the test then aborts the transaction, as a client would;
* a commit makes the writes the committed ages, an abort drops them, and
  a crash followed by a restart from the write-ahead log drops every
  open transaction's and keeps every committed one.

A read-modify-write that reads a stale value loses an update, and the
next read of that age disagrees with the model.  So does a session whose
parked handle missed another session's commit, or a cold restart that
hands a recycled handle out with its old record.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.errors import LockConflictError, WriteConflictError
from repro.service import QueryService

N_SESSIONS = 2
N_PATIENTS = 2

_SESSIONS = st.integers(min_value=0, max_value=N_SESSIONS - 1)
_PATIENTS = st.integers(min_value=0, max_value=N_PATIENTS - 1)
_AGES = st.integers(min_value=1, max_value=99)


class _OpenTxn:
    """The model of one open transaction."""

    def __init__(self, snapshot: dict[int, int] | None, begun_at: int):
        self.snapshot = snapshot
        #: The commit count when it began (SI's first-committer check).
        self.begun_at = begun_at
        self.writes: dict[int, int] = {}
        self.shared: set[int] = set()


class SerialModelMachine(RuleBasedStateMachine):
    isolation = "2pl"

    @initialize()
    def setup(self):
        self.derby = load_derby(DerbyConfig.db_1to3(scale=0.00001))
        self.rids = self.derby.patient_rids[:N_PATIENTS]
        self.service = QueryService(self.derby, isolation=self.isolation)
        self.sessions = [
            self.service.open_session(f"s{n}") for n in range(N_SESSIONS)
        ]
        om = self.derby.db.manager
        #: patient -> its committed age.
        self.committed = {
            k: om.get_attr_at(rid, "age") for k, rid in enumerate(self.rids)
        }
        #: patient -> how many commits had happened when it was last written.
        self.written_at = dict.fromkeys(self.committed, 0)
        self.commits = 0
        #: session -> its open transaction's model.
        self.open: dict[int, _OpenTxn] = {}

    # -- what the model expects ------------------------------------------

    def expected(self, s: int, k: int) -> int:
        txn = self.open[s]
        if k in txn.writes:
            return txn.writes[k]
        if txn.snapshot is not None:
            return txn.snapshot[k]
        return self.committed[k]

    def read_conflicts(self, s: int, k: int) -> bool:
        """2PL: another transaction holds the exclusive lock."""
        return self.isolation == "2pl" and any(
            k in txn.writes for o, txn in self.open.items() if o != s
        )

    def write_error(self, s: int, k: int) -> type[Exception] | None:
        """The error a write of ``k`` by ``s`` must raise, if any."""
        txn = self.open[s]
        if k in txn.writes:
            return None  # its own exclusive lock, already checked
        others = [t for o, t in self.open.items() if o != s]
        if any(k in t.writes for t in others):
            return LockConflictError
        if self.isolation == "2pl":
            if any(k in t.shared for t in others):
                return LockConflictError
            return None
        if self.written_at[k] > txn.begun_at:
            return WriteConflictError
        return None

    # -- the operations, one session each -----------------------------------

    def _read(self, s: int, k: int) -> int | None:
        """Read ``k`` in ``s``'s open transaction; ``None`` (and the
        transaction aborted) on a predicted conflict."""
        session, rid = self.sessions[s], self.rids[k]
        if self.read_conflicts(s, k):
            with self.service.immediate(session):
                try:
                    session.read_lock(rid)
                except LockConflictError:
                    pass
                else:
                    raise AssertionError(
                        f"s{s} read-locked patient {k} under an X lock"
                    )
            self._abort(s)
            return None
        with self.service.immediate(session):
            if self.isolation == "2pl":
                session.read_lock(rid)
                self.open[s].shared.add(k)
            age = session.get_attr(rid, "age")
        assert age == self.expected(s, k), (
            f"s{s} read age {age} of patient {k}; the model says "
            f"{self.expected(s, k)}"
        )
        return age

    def _write(self, s: int, k: int, age: int) -> bool:
        """Write ``k`` in ``s``'s open transaction; ``False`` (and the
        transaction aborted) on a predicted conflict."""
        session, rid = self.sessions[s], self.rids[k]
        error = self.write_error(s, k)
        raised = None
        with self.service.immediate(session):
            try:
                session.update_scalar(rid, "age", age)
            except LockConflictError as exc:
                raised = exc
        if raised is not None:
            assert type(raised) is error, (
                f"s{s} writing patient {k}: {raised!r}, model: {error}"
            )
            self._abort(s)
            return False
        assert error is None, f"s{s} wrote patient {k}; model: {error}"
        self.open[s].writes[k] = age
        return True

    def _abort(self, s: int) -> None:
        with self.service.immediate(self.sessions[s]):
            self.sessions[s].abort()
        del self.open[s]

    def _begin(self, s: int) -> None:
        """Open a transaction in ``s`` unless one is open."""
        if s in self.open:
            return
        with self.service.immediate(self.sessions[s]):
            self.sessions[s].begin()
        snapshot = dict(self.committed) if self.isolation == "si" else None
        self.open[s] = _OpenTxn(snapshot, self.commits)

    def _commit(self, s: int) -> None:
        with self.service.immediate(self.sessions[s]):
            self.sessions[s].commit()
        txn = self.open.pop(s)
        if txn.writes:
            self.commits += 1
            for k, age in txn.writes.items():
                self.committed[k] = age
                self.written_at[k] = self.commits

    # -- rules -----------------------------------------------------------------

    @rule(s=_SESSIONS, k=_PATIENTS, then_commit=st.booleans())
    def read(self, s, k, then_commit):
        self._begin(s)
        if self._read(s, k) is not None and then_commit:
            self._commit(s)

    @rule(s=_SESSIONS, k=_PATIENTS, age=_AGES, then_commit=st.booleans())
    def update(self, s, k, age, then_commit):
        self._begin(s)
        if self._write(s, k, age) and then_commit:
            self._commit(s)

    @rule(s=_SESSIONS, k=_PATIENTS, then_commit=st.booleans())
    def read_modify_write(self, s, k, then_commit):
        self._begin(s)
        age = self._read(s, k)
        if age is not None and self._write(s, k, age % 99 + 1) and then_commit:
            self._commit(s)

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def commit(self, data):
        self._commit(data.draw(st.sampled_from(sorted(self.open))))

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def abort(self, data):
        self._abort(data.draw(st.sampled_from(sorted(self.open))))

    @rule(s=_SESSIONS)
    def cold_restart(self, s):
        """The session's caches and handles go; its parked handles
        become the spares its next misses re-initialise."""
        with self.service.immediate(self.sessions[s]):
            self.derby.db.restart_cold()

    @rule()
    def crash_and_restart(self):
        self.service.crash()
        self.service.recover()
        self.open.clear()

    @invariant()
    def nothing_is_locked_without_an_open_transaction(self):
        if not self.open:
            locks = self.service.txm.locks
            assert locks.lock_count == 0 and locks.waiting_count == 0


class SerialModelMachineSI(SerialModelMachine):
    isolation = "si"


_SETTINGS = settings(max_examples=40, stateful_step_count=25, deadline=None)
SerialModelMachine.TestCase.settings = _SETTINGS
SerialModelMachineSI.TestCase.settings = _SETTINGS
TestWritesAgainstASerialModel2PL = SerialModelMachine.TestCase
TestWritesAgainstASerialModelSI = SerialModelMachineSI.TestCase
