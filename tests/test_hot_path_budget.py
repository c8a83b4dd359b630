"""Ratchet on the hot paths: Python calls per attribute read and per
``borrow`` bracket, per object created and per record inserted.

The paper's Section 4.4 finding is that per-object bookkeeping, not the
join algorithm, dominates a cold tree query.  The simulator must not
repeat that in host time: schema, layout and cost constants are resolved
once per class version, so a read is a handful of calls however many
attributes a class has.  This test runs one NOJOIN and one PHJ at a tiny
scale under ``cProfile`` and holds the counts to a budget about 10 %
above what they measure today.  A count is exact and repeats, so a
failure here is a real regression, not noise -- and the message lists
the callees that grew.

The write path has the same contract (the paper's Section 3: loading is
what eats a benchmarking campaign): the record writer, the header bytes
and the slack arithmetic are resolved once per class version or per
file, so a create is a few dozen calls however the class is declared.
One tiny ``load_derby`` under ``cProfile`` holds the calls beneath one
``Transaction.create_object`` and one ``StorageFile.insert`` to budget.
"""

from __future__ import annotations

import cProfile

import pytest

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig

#: Calls made by one ``ObjectManager.get_attr``, itself included,
#: averaged over the attributes the two joins read (measured: 4.53; 29.5
#: before the per-class-version attribute tables).
GET_ATTR_BUDGET = 5.0
#: Calls made by one ``with om.borrow(rid) as h:`` bracket -- ``borrow``
#: plus ``__enter__`` plus ``__exit__`` and everything beneath them --
#: not counting the record read on a handle miss (measured: 14.72, of
#: which the 86 % of brackets that miss spend 4 allocating the handle).
BRACKET_BUDGET = 16.2

#: Calls made by one ``Transaction.create_object`` of an unlogged load,
#: itself included, down through the record writer, the storage file and
#: the page caches (measured: 40.99; 108.56 when every create re-derived
#: the attribute lists, built and encoded an ``ObjectHeader`` and packed
#: attribute by attribute).
CREATE_OBJECT_BUDGET = 45.0
#: Calls made by one ``StorageFile.insert``, itself included -- objects,
#: collection chunks and index leaves alike (measured: 15.65; 31.91 with
#: two cache probes and the slack computed twice per insert).
INSERT_BUDGET = 17.2

MANAGER = "repro/objects/manager.py"
BRACKET_ROOTS = (
    "ObjectManager.borrow", "_Borrow.__enter__", "_Borrow.__exit__",
)
#: Where the bracket's subtree stops: the loader is the buffer and
#: storage layers' business.
LOADER = "ObjectManager.read_record"


def _name(code) -> str:
    """``file:qualname`` of a profiler row (a builtin is a string)."""
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_qualname}"


class CallGraph:
    """``cProfile.Profile.getstats()`` as a graph with call counts."""

    def __init__(self, entries: list):
        self.by_code = {entry.code: entry for entry in entries}
        self._beneath: dict[tuple, float] = {}

    def find(self, file_suffix: str, qualname: str):
        for code in self.by_code:
            if not isinstance(code, str) and code.co_qualname == qualname \
                    and code.co_filename.endswith(file_suffix):
                return code
        return None

    def calls(self, code) -> int:
        return self.by_code[code].callcount if code in self.by_code else 0

    def count(self, predicate) -> int:
        return sum(
            entry.callcount for code, entry in self.by_code.items()
            if predicate(_name(code))
        )

    def beneath(self, code, stop=None) -> float:
        """Average number of calls made beneath one call of ``code``
        (itself excluded, ``stop``'s subtree excluded).  A callee shared
        with other callers contributes its own average."""
        if code == stop:
            return 0.0
        key = (code, stop)
        if key not in self._beneath:
            self._beneath[key] = 0.0  # a cycle contributes nothing more
            entry = self.by_code.get(code)
            if entry is not None and entry.calls:
                total = sum(
                    edge.callcount * (1.0 + self.beneath(edge.code, stop))
                    for edge in entry.calls if edge.code != stop
                )
                self._beneath[key] = total / entry.callcount
        return self._beneath[key]

    def callees(self, code, stop=None, depth: int = 0) -> list[str]:
        """The subtree beneath ``code``, one line per edge, for failure
        messages."""
        entry = self.by_code.get(code)
        lines = []
        if entry is None or depth > 4:
            return lines
        for edge in sorted(entry.calls or (), key=lambda e: -e.callcount):
            if edge.code == stop:
                continue
            lines.append(
                f"{'  ' * depth}{edge.callcount / entry.callcount:6.2f} x "
                f"{_name(edge.code).rsplit('/', 1)[-1]}"
            )
            lines.extend(self.callees(edge.code, stop, depth + 1))
        return lines


@pytest.fixture(scope="module")
def graph() -> CallGraph:
    runner = ExperimentRunner(load_derby(DerbyConfig.db_1to3(scale=0.0003)))
    runner.run_join("NOJOIN", 50, 50)  # classes compiled, codecs built
    profile = cProfile.Profile()
    profile.enable()
    nojoin = runner.run_join("NOJOIN", 50, 50)
    phj = runner.run_join("PHJ", 50, 50)
    profile.disable()
    assert nojoin.rows == phj.rows > 0
    return CallGraph(profile.getstats())


def test_no_charge_or_read_hashes_an_enum_in_python(graph):
    hashed = graph.count(
        lambda name: name.endswith("Enum.__hash__") and "/enum.py" in name
    )
    assert hashed == 0, (
        f"{hashed} Python-level Enum.__hash__ calls: an Enum keys a dict "
        "or set on the hot path (Bucket and AttrKind hash by identity)"
    )


def test_calls_per_get_attr(graph):
    get_attr = graph.find(MANAGER, "ObjectManager.get_attr")
    assert graph.calls(get_attr) > 500
    per_read = 1.0 + graph.beneath(get_attr)
    assert per_read <= GET_ATTR_BUDGET, (
        f"{per_read:.2f} calls per get_attr, budget {GET_ATTR_BUDGET}; "
        "per get_attr it calls:\n" + "\n".join(graph.callees(get_attr))
    )


def test_calls_per_borrow_bracket(graph):
    roots = [graph.find(MANAGER, name) for name in BRACKET_ROOTS]
    assert None not in roots, (
        f"the bracket is no longer {BRACKET_ROOTS}: re-derive this budget"
    )
    loader = graph.find(MANAGER, LOADER)
    brackets = graph.calls(roots[0])
    assert brackets > 500
    assert [graph.calls(root) for root in roots] == [brackets] * 3
    per_bracket = sum(1.0 + graph.beneath(root, loader) for root in roots)
    assert per_bracket <= BRACKET_BUDGET, (
        f"{per_bracket:.2f} calls per borrow bracket, budget "
        f"{BRACKET_BUDGET}; per bracket it calls:\n" + "\n".join(
            line for root in roots
            for line in [_name(root).rsplit("/", 1)[-1],
                         *graph.callees(root, loader, 1)]
        )
    )


# ------------------------------------------------------------ write path

@pytest.fixture(scope="module")
def load_graph() -> CallGraph:
    config = DerbyConfig.db_1to3(scale=0.0003)
    load_derby(config)  # struct formats cached, modules warm
    profile = cProfile.Profile()
    profile.enable()
    derby = load_derby(config)
    profile.disable()
    assert derby.load_report.objects_created == 1200
    return CallGraph(profile.getstats())


@pytest.mark.parametrize("file_suffix, qualname, budget", [
    ("repro/txn/manager.py", "Transaction.create_object", CREATE_OBJECT_BUDGET),
    ("repro/storage/file.py", "StorageFile.insert", INSERT_BUDGET),
])
def test_calls_per_write(load_graph, file_suffix, qualname, budget):
    root = load_graph.find(file_suffix, qualname)
    assert load_graph.calls(root) >= 1200
    per_call = 1.0 + load_graph.beneath(root)
    assert per_call <= budget, (
        f"{per_call:.2f} calls per {qualname}, budget {budget}; "
        "per call it calls:\n" + "\n".join(load_graph.callees(root))
    )
