"""Ratchet on the hot paths: Python calls per attribute read, per
``borrow`` bracket, per handle miss, per hash-table touch, per fetched
row and per index entry; per object created and per record inserted.

The paper's Section 4.4 finding is that per-object bookkeeping, not the
join algorithm, dominates a cold tree query.  The simulator must not
repeat that in host time: schema, layout and cost constants are resolved
once per class version, so a read is a handful of calls however many
attributes a class has.  This test runs one NOJOIN and one PHJ at a tiny
scale under ``cProfile`` and holds the counts to a budget about 10 %
above what they measure today.  A count is exact and repeats, so a
failure here is a real regression, not noise -- and the message lists
the callees that grew.

A cold query misses the handle table on most brackets.  The joins hand
their rids to ``ObjectManager.fetch``, which brackets a hit and a miss
on a resident page by hand, so the kernel's bracket and its inline miss
each have a budget: the bracket is the handle-table probe, the park and
the eviction, and the miss adds the client-cache hit, the slot probe
and the handle it makes.  A miss whose page faults goes through
``borrow``, as does NOJOIN's parent, and that bracket keeps a budget of
its own, stopping at ``read_record``.  So does a hash-table insert or
probe, which knows the table's size and neither recomputes it nor
reaches the clock through a call.

The same profile holds the joins' probe loops to their shape: each is a
``_next`` that hands its children to the kernel, which calls the row
function once per child, so what the loop itself costs -- beyond the
brackets, reads and probes that are the algorithm -- is one call per
child scanned plus a few frames per batch, and nothing in ``joins.py``
counts its batch with ``len``, ``next`` and ``append``.

The warm read path has the same contract: everything a statement cannot
change -- prices, the row function's shape, the handle table's state --
is resolved before the row loop, so a row fetched through a warm handle
is seven calls and an index entry a fiftieth of one.  One indexed
selection run twice through ``OQLEngine.execute``, the second time under
``cProfile``, holds the bracket ``ObjectManager.fetch`` runs on a handle
hit, the calls beneath ``Fetch._next`` per scanned rid and the calls of
the range scan per entry to budget.  The same selection read inside a
snapshot-isolation transaction pays one visibility call per row more,
the kernel bracketing the live record itself.

The write path has the same contract (the paper's Section 3: loading is
what eats a benchmarking campaign): the record writer, the header bytes
and the slack arithmetic are resolved once per class version or per
file, so a create is about twenty calls however the class is declared.
A load hands each commit batch to one kernel, ``Database.create_objects``,
which binds that state once per batch and appends to a resident tail
page inline; one tiny ``load_derby`` under ``cProfile`` holds its calls
per object created to budget.  The same load run object by object (the
path the fuzz, churn, OO7 and stats callers still take) holds the calls
beneath one ``Transaction.create_object`` and one ``StorageFile.insert``
to budget.  What a load knows once it resolves once: which transaction
mode it is in, the codec, header bytes and file of the class it creates
into, the tail page of the file -- and a mutation that has just read a
record neither probes its slot again nor searches an empty handle table.
The same load holds one ``ObjectManager.update_set`` (the association
pass) to budget, and one with ``index_first=False`` holds the header
pass, ``ObjectManager.stamp_index``, per member (the Section 3.2
index-after pass).

A meter is an integer that is added to.  Two costs no call count
shows are held here by other means: no code under ``src/repro`` asks
an instance for its dict (which slows every later attribute write on
it), and a 4-client mix builds no ``MeterSnapshot`` per context
switch (its constructions counted by a wrapper around the generated
``__init__``).
"""

from __future__ import annotations

import ast
import cProfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import ExperimentRunner, tree_query_text
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.oql import Catalog, OQLEngine
from repro.txn import TransactionManager
from repro.txn.manager import Transaction

from .test_load_kernel import create_each

#: Calls made by one ``ObjectManager.get_attr``, itself included,
#: averaged over the attributes the two joins read (measured: 3.18; 3.35
#: when a literal's handle was a ``charge_literal`` call; 4.53 when the
#: decode and literal charges were ``charge_us`` calls, 29.5 before the
#: per-class-version attribute tables).
GET_ATTR_BUDGET = 3.5
#: Calls the kernel makes per rid it brackets by hand on the cold joins
#: (a hit, or a miss on a resident page, 98 % of the kernel's rids),
#: the miss's own steps apart: its ``dict.get`` into the handle table,
#: the ``move_to_end`` that parks the handle, the eviction's ``popitem``
#: and its own frame's share (measured: 2.03; as a ``with om.borrow``
#: bracket, 5.86 when 86 % of brackets missed and spent 1 more in
#: ``Handle.__init__``, 7.72 when ``borrow`` called the table's
#: ``reference`` and ``allocate`` and ``__exit__`` its ``unreference``,
#: 14.72 when the bracket was a ``_Borrow`` object around
#: ``load``/``unref`` and every charge a ``charge_us`` call).
BRACKET_BUDGET = 2.2
#: Calls made by one ``with om.borrow(rid) as h:`` bracket -- ``borrow``
#: plus ``__enter__`` plus ``__exit__`` and everything beneath them --
#: not counting the record read on a handle miss: NOJOIN's parent, and
#: a kernel rid whose page faults (measured: 5.56; 5.86 when it was
#: every bracket of the joins; 7.86 when a hit popped its handle out of
#: the parked list; 8.72 when ``allocate`` kept a peak with ``len``).
BORROW_BRACKET_BUDGET = 6.1
#: Calls a miss adds to the kernel's bracket when the rid's page is
#: resident: the client-cache ``move_to_end``, ``Page.resolve`` and a
#: spare's ``pop`` or ``Handle.__init__`` (measured: 3.00; 5 as
#: ``ObjectManager.read_record`` -> ``read_resolving`` -> ``get_page``
#: and its ``move_to_end`` -> ``Page.resolve``, 7.88 on average with the
#: 19 % of misses that fault; 8.88 when a client hit went through
#: ``BufferCache.lookup``; 26.07 when the slot was probed twice behind
#: ``len`` and ``isinstance``, the class looked up through ``peek_*`` and
#: ``class_version`` per record and ``lookup`` a ``get`` then a
#: ``move_to_end``).
MISS_BUDGET = 3.3
#: Calls made by one ``ObjectManager.read_record`` -- what a ``borrow``
#: miss adds to its bracket -- itself included: ``read_resolving``,
#: ``get_page`` and, as most of these misses fault, the server probe,
#: the disk read and the admissions (measured: 18.68 now that the
#: kernel takes the resident misses; 7.88 when it was every miss of the
#: joins, 19 % of them faults).
READ_RECORD_BUDGET = 20.6
#: Calls made by one ``QueryHashTable.insert`` or ``probe``, itself
#: included: the touch charge and the ``dict.get`` (measured: 3.00; 7.00
#: when the charge went through ``charge_us`` and ``swapped_fraction``
#: -> ``table_bytes`` -> ``len``).
HASH_OP_BUDGET = 3.3
#: The same bracket when the handle is parked, as it is on every row of
#: a warm selection, where ``ObjectManager.fetch`` runs it by hand: the
#: ``dict.get`` and the ``move_to_end`` back into the delayed-free order,
#: and the kernel's own frame, one per source batch (measured: 2.01;
#: 5.00 as ``borrow`` and its ``dict.get``, ``__enter__``, ``__exit__``
#: and its ``move_to_end``; 6.00 with the table's ``reference`` and
#: ``unreference`` frames; 7.00 when a hit popped the handle out of the
#: parked list and parking took its ``len``; 13.00 before).
WARM_BRACKET_BUDGET = 2.2
#: Calls beneath ``Fetch._next`` per rid it scans, on a warm indexed
#: single-attribute selection: the bracket, the row function, one
#: ``get_attr``, the result append (measured: 7.04; 10.03 with the
#: bracket's ``borrow``, ``__enter__`` and ``__exit__`` frames per row;
#: 11.03 with the table's ``reference`` and ``unreference`` frames in
#: the bracket; 12.04 with the parked ``pop`` and ``len`` in the
#: bracket; 29.03 with the generic row function, ``charge_result`` and
#: ``len(out)`` per row).
FETCHED_ROW_BUDGET = 7.7
#: The same row read by a snapshot-isolation transaction, the record
#: live: the warm row plus the kernel's one ``SnapshotView.live`` per
#: rid, which asks its dicts with ``in`` (measured: 8.04; 10.04 when
#: ``live`` probed them with ``dict.get``; 12.04 when every rid under a
#: view went through ``borrow`` -> ``SnapshotView.load`` -> ``tag`` ->
#: ``borrow`` and the bracket's ``__enter__`` / ``__exit__``).
SNAPSHOT_ROW_BUDGET = 8.8
#: Calls made by the rid scan per rid it yields, the leaf reads apart:
#: per 200-entry leaf one generator step, the count, the keys and the
#: bisections; the run's rids are a slice of the leaf's rid column
#: (measured: 0.024; 0.030 when the range scan decoded each run's rids
#: and paired them with their keys; 0.041 when each leaf was decoded
#: whole through ``_read_leaf`` and measured with ``len``; 2.00 with a
#: filter and an ``IndexEntry`` per entry).
INDEX_ENTRY_BUDGET = 0.1

#: Calls the create kernel makes per object of an unlogged load, itself
#: and the loader's step generator included, down through the record
#: writer, the inline append, the collection append and the fallbacks
#: to ``StorageFile.insert`` (a new page, a tail that would fault)
#: (measured: 18.51; 21.71 beneath ``Transaction.create_object`` alone
#: when the loader created object by object).
CREATE_KERNEL_BUDGET = 20.4
#: Calls made by one ``Transaction.create_object`` of an unlogged load
#: run object by object, itself included, down through the record
#: writer, the storage file and the page caches (measured: 20.71;
#: 30.26 when the record body merged
#: the defaults under the values, ran one coercer frame per attribute and
#: packed each ref on its own; 38.89 when every create checked the
#: transaction's state and mode through a method and a property, probed
#: the schema, the codec table, the header cache and the file table,
#: charged through ``charge_us`` and asked the disk for the file's tail;
#: 108.56 when it also re-derived the attribute lists, built and encoded
#: an ``ObjectHeader`` and packed attribute by attribute).
CREATE_OBJECT_BUDGET = 23.9
#: Calls made by one ``StorageFile.insert``, itself included -- objects,
#: collection chunks and index leaves alike (measured: 9.93; 13.56 when
#: the tail page was ``num_pages`` -> ``_file`` -> ``len``, 14.57 when the cache probe was a ``get`` then a
#: ``move_to_end``, 31.91 with two cache probes and the slack computed
#: twice per insert).
INSERT_BUDGET = 12.1
#: Calls made by one ``ObjectManager.update_set``, itself included: the
#: read, the re-encoded set, the write-back (measured: 32.77;
#: 48.22 when ``update_set`` decoded every rid of a set to step over it,
#: ``StorageFile.update`` probed the slot twice more after
#: ``read_resolving`` and marked dirty the page it had just fetched, and
#: four probes searched a handle table a load leaves empty).
UPDATE_SET_BUDGET = 36.0
#: Calls the header pass (``ObjectManager.stamp_index``) makes per
#: member of an ``index_first=False`` load, the chunk reads of the
#: collection and the moves of grown records included (measured: 20.93;
#: 21.94 beneath the header rewrite alone, with ``read_record`` apart,
#: when each member made three ``get_page`` calls; 34.02 with second and
#: third slot probes, ``mark_dirty`` and handle probes).
HEADER_PASS_BUDGET = 23.0

#: Calls a join's probe loop makes per child it scans that are not the
#: algorithm's own work: the row function the kernel calls per child and
#: the ``_next`` frame per batch, there being no ``len`` / ``next`` /
#: ``append`` out of ``joins.py`` (measured: 1.004; as a generator
#: resumed per emitted row, 0.54 at 50/50 beside 5.86 calls per child
#: in its ``borrow`` bracket, which the kernel now runs in 2.03; 2.54
#: when each loop counted its batch with ``len``, pulled with ``next``
#: and collected with ``append``).
LOOP_OVERHEAD_BUDGET = 1.1

MANAGER = "repro/objects/manager.py"
HANDLE = "repro/objects/handle.py"
HASH_TABLE = "repro/exec/hash_table.py"
BTREE = "repro/index/btree.py"
JOINS = "repro/exec/operators/joins.py"
JOIN_LOOPS = ("NavigationChildToParent._next", "HashParentsJoin._next")
LOOP_BUILTINS = (
    "<built-in method builtins.len>",
    "<built-in method builtins.next>",
    "<method 'append' of 'list' objects>",
)
BRACKET_ROOTS = (
    (MANAGER, "ObjectManager.borrow"),
    (HANDLE, "Handle.__enter__"),
    (HANDLE, "Handle.__exit__"),
)
#: The kernel that brackets a batch of rids, a handle hit by hand.
KERNEL = (MANAGER, "ObjectManager.fetch")
#: Where the ``borrow`` bracket's subtree stops: the loader crosses the
#: storage and buffer layers, and on the joins it mostly faults.
LOADER = "ObjectManager.read_record"
#: What the kernel calls for a miss on a resident page, beyond the
#: client-cache ``move_to_end``: the slot probe, a spare or a new handle
#: (one of the two per miss it takes), and the class the first time a
#: class id is seen.
MISS_STEPS = (
    "repro/storage/page.py:Page.resolve",
    "<method 'pop' of 'list' objects>",
    "repro/objects/handle.py:Handle.__init__",
    "repro/objects/manager.py:ObjectManager.class_of",
)
HASH_OPS = ("QueryHashTable.insert", "QueryHashTable.probe")


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

    def edges_out_of(self, file_suffix: str) -> dict[tuple[str, str], int]:
        """``(caller, callee) -> calls`` for every edge out of one file."""
        return {
            (_name(code).rsplit("/", 1)[-1], _name(edge.code)): edge.callcount
            for code, entry in self.by_code.items()
            if not isinstance(code, str)
            and code.co_filename.endswith(file_suffix)
            for edge in entry.calls or ()
        }

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
    engine = runner.session.engine
    text = tree_query_text(runner.derby.config, 50, 50)
    root = engine.compile(engine.plan(text, force="NOJOIN"))
    children = sum(1 for __ in root.q.selected_children())
    profile = cProfile.Profile()
    profile.enable()
    nojoin = runner.run_join("NOJOIN", 50, 50)
    phj = runner.run_join("PHJ", 50, 50)
    profile.disable()
    assert nojoin.rows == phj.rows > 0
    graph = CallGraph(profile.getstats())
    #: What each of the two joins emitted and scanned.
    graph.rows, graph.children = nojoin.rows, children
    return graph


def test_no_charge_or_read_hashes_an_enum_in_python(graph):
    hashed = graph.count(
        lambda name: name.endswith("Enum.__hash__") and "/enum.py" in name
    )
    assert hashed == 0, (
        f"{hashed} Python-level Enum.__hash__ calls: an Enum keys a dict "
        "or set on the hot path (Bucket and AttrKind hash by identity)"
    )


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: Enums no function body may read a member off: on CPython 3.11
#: ``EnumType.__getattr__`` sends ``Bucket.CPU`` through the slow
#: attribute hook, about 110 ns a read against a few for a module global,
#: and no Python frame runs, so no call budget sees it.  Each module binds
#: the members it uses at module level instead.  ``AttrKind``,
#: ``HandleMode`` and ``Clustering`` are read once per class version or
#: database, so they are not listed.
BOUND_ENUMS = ("Bucket", "LockMode", "TaskState")


class _MemberReads(ast.NodeVisitor):
    """``Enum.MEMBER`` reads of :data:`BOUND_ENUMS` inside a function or
    lambda body.  Decorators and defaults run once, at definition, and
    annotations never (``from __future__ import annotations``), so they
    are not bodies."""

    def __init__(self):
        self.depth = 0
        self.sites: list[tuple[int, str]] = []

    def _visit_def(self, node) -> None:
        args = node.args
        for once in (*getattr(node, "decorator_list", ()), *args.defaults,
                     *args.kw_defaults):
            if once is not None:
                self.visit(once)
        self.depth += 1
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(stmt)
        self.depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_def

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.depth and isinstance(node.value, ast.Name)
                and node.value.id in BOUND_ENUMS and node.attr.isupper()):
            self.sites.append((node.lineno, f"{node.value.id}.{node.attr}"))
        self.generic_visit(node)


def _member_reads(source: str) -> list[tuple[int, str]]:
    reads = _MemberReads()
    reads.visit(ast.parse(source))
    return reads.sites


def test_no_function_reads_an_enum_member_off_its_class():
    sites = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "lint"
        for line, name in _member_reads(path.read_text(encoding="utf-8"))
    ]
    assert not sites, (
        f"{len(sites)} reads of an enum member inside a function body; bind "
        "each at module level (_CPU = Bucket.CPU) and read the name:\n"
        + "\n".join(sites)
    )


def test_the_member_guard_sees_a_read_put_back():
    """The scan finds a ``Bucket.CPU`` put back into ``get_attr``'s decode
    charge and nothing else in the file, so the guard above can fail."""
    text = (SRC / "objects" / "manager.py").read_text(encoding="utf-8")
    charge = "buckets[_CPU] += handles._decode_s"
    assert text.count(charge) == 1, "get_attr's decode charge moved"
    seeded = text.replace(charge, "buckets[Bucket.CPU] += handles._decode_s")
    line = text[:text.index(charge)].count("\n") + 1
    assert _member_reads(text) == []
    assert _member_reads(seeded) == [(line, "Bucket.CPU")]


class _DictReads(ast.NodeVisitor):
    """``vars(obj)`` calls and ``.__dict__`` reads.  On CPython 3.11 an
    instance keeps its attributes inline until something asks for its
    dict; from then on every attribute write goes through that dict, a
    ``+=`` on a meter several times slower, for the object's whole life
    (docs/benchmarking-tips.md, "What cProfile cannot see").  No Python
    frame runs, so no call budget sees it."""

    def __init__(self):
        self.sites: list[tuple[int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "vars"
                and node.args):
            self.sites.append((node.lineno, ast.unparse(node)))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "__dict__":
            self.sites.append((node.lineno, ast.unparse(node)))
        self.generic_visit(node)


def _dict_reads(source: str) -> list[tuple[int, str]]:
    reads = _DictReads()
    reads.visit(ast.parse(source))
    return reads.sites


def test_no_code_materialises_an_instance_dict():
    sites = [
        f"{path.relative_to(SRC)}:{line} {text}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "lint"
        for line, text in _dict_reads(path.read_text(encoding="utf-8"))
    ]
    assert not sites, (
        f"{len(sites)} reads of an instance dict; set the attributes one "
        "by one (a dataclass can re-run its generated __init__):\n"
        + "\n".join(sites)
    )


def test_the_dict_guard_sees_a_vars_put_back():
    """The scan finds the ``vars(self)`` zeroing put back into
    ``CounterSet.reset`` and nothing else in the file, so the guard
    above can fail."""
    text = (SRC / "simtime" / "meters.py").read_text(encoding="utf-8")
    reset = "CounterSet.__init__(self)"
    assert text.count(reset) == 1, "CounterSet.reset moved"
    seeded = text.replace(reset, "vars(self).update(_ZEROED)")
    line = text[:text.index(reset)].count("\n") + 1
    assert _dict_reads(text) == []
    assert _dict_reads(seeded) == [(line, "vars(self)")]


def test_calls_per_get_attr(graph):
    get_attr = graph.find(MANAGER, "ObjectManager.get_attr")
    assert graph.calls(get_attr) > 500
    per_read = 1.0 + graph.beneath(get_attr)
    assert per_read <= GET_ATTR_BUDGET, (
        f"{per_read:.2f} calls per get_attr, budget {GET_ATTR_BUDGET}; "
        "per get_attr it calls:\n" + "\n".join(graph.callees(get_attr))
    )


def _calls_per_bracket(graph: CallGraph) -> tuple[float, str]:
    """Calls per ``borrow`` bracket, and the subtree for the message."""
    roots = [graph.find(*root) for root in BRACKET_ROOTS]
    assert None not in roots, (
        f"the bracket is no longer {BRACKET_ROOTS}: re-derive this budget"
    )
    loader = graph.find(MANAGER, LOADER)
    brackets = graph.calls(roots[0])
    assert brackets >= graph.children  # NOJOIN borrows a parent per child
    assert [graph.calls(root) for root in roots] == [brackets] * 3
    per_bracket = sum(1.0 + graph.beneath(root, loader) for root in roots)
    return per_bracket, "\n".join(
        line for root in roots
        for line in [_name(root).rsplit("/", 1)[-1],
                     *graph.callees(root, loader, 1)]
    )


class KernelSteps:
    """What ``ObjectManager.fetch`` called on the two joins, sorted into
    the row functions, the ``borrow`` fallback, the result ``append``,
    the inline miss's steps and the rest, which is the bracket."""

    def __init__(self, graph: CallGraph):
        kernel = graph.find(*KERNEL)
        assert kernel is not None, f"the kernel is no longer {KERNEL}"
        fallback = {graph.find(*root) for root in BRACKET_ROOTS}
        self.frames = graph.calls(kernel)
        self.rows = self.borrowed = self.misses = 0
        #: name -> (calls, calls each makes beneath it)
        self.miss: dict[str, tuple[int, float]] = {}
        self.bracket: dict[str, tuple[int, float]] = {}
        for edge in graph.by_code[kernel].calls:
            name, calls = _name(edge.code), edge.callcount
            step = (calls, graph.beneath(edge.code))
            if not isinstance(edge.code, str) \
                    and edge.code.co_filename.endswith(JOINS):
                self.rows += calls
            elif edge.code in fallback:
                if name.endswith("ObjectManager.borrow"):
                    self.borrowed += calls
            elif name == LOOP_BUILTINS[2]:
                pass  # the result, not the bracket
            elif name.endswith(MISS_STEPS):
                self.miss[name.rsplit("/", 1)[-1]] = step
                if name.endswith(MISS_STEPS[1:3]):
                    self.misses += calls  # the handle each miss makes
            else:
                self.bracket[name] = step
        #: Rids bracketed by hand; ``misses`` are those among them that
        #: made a handle.
        self.inline = self.rows - self.borrowed

    @staticmethod
    def lines(steps: dict[str, tuple[int, float]], per: int) -> list[str]:
        return [
            f"{calls * (1.0 + beneath) / per:6.2f} x {name}"
            for name, (calls, beneath) in steps.items()
        ]


def test_calls_per_borrow_bracket(graph):
    """The bracket the kernel runs by hand, on a hit and on a miss whose
    page is resident, is its own builtin calls plus its frame's share;
    the client-cache ``move_to_end`` of each miss belongs to the miss.
    A rid whose page faults, and NOJOIN's parent, go through a ``with
    om.borrow`` bracket, which keeps its budget."""
    steps = KernelSteps(graph)
    assert steps.inline > 500 and steps.misses <= steps.inline
    calls = steps.frames - steps.misses + sum(
        n * (1.0 + beneath) for n, beneath in steps.bracket.values()
    )
    per_bracket = calls / steps.inline
    assert per_bracket <= BRACKET_BUDGET, (
        f"{per_bracket:.2f} calls per bracket the kernel runs, budget "
        f"{BRACKET_BUDGET}; per bracket it calls (the miss's "
        "move_to_end included):\n"
        + "\n".join(KernelSteps.lines(steps.bracket, steps.inline))
    )
    per_borrow, subtree = _calls_per_bracket(graph)
    assert per_borrow <= BORROW_BRACKET_BUDGET, (
        f"{per_borrow:.2f} calls per borrow bracket, budget "
        f"{BORROW_BRACKET_BUDGET}; per bracket it calls:\n{subtree}"
    )


def test_calls_per_handle_miss(graph):
    """A miss on a resident page runs in the kernel, with no
    ``read_record`` frame; a miss whose page faults, and NOJOIN's
    parent, reach ``read_record`` through ``borrow``.  Each has its
    budget."""
    steps = KernelSteps(graph)
    assert steps.misses > 500
    loader = graph.find(MANAGER, LOADER)
    borrow = graph.find(*BRACKET_ROOTS[0])
    assert 0 < graph.calls(loader) <= graph.calls(borrow)
    per_read = 1.0 + graph.beneath(loader)
    assert per_read <= READ_RECORD_BUDGET, (
        f"{per_read:.2f} calls per read_record (itself and beneath), "
        f"budget {READ_RECORD_BUDGET}; per read_record it calls:\n"
        + "\n".join(graph.callees(loader))
    )
    calls = steps.misses + sum(  # one client-cache move_to_end each
        n * (1.0 + beneath) for n, beneath in steps.miss.values()
    )
    per_miss = calls / steps.misses
    assert per_miss <= MISS_BUDGET, (
        f"{per_miss:.2f} calls per handle miss in the kernel, budget "
        f"{MISS_BUDGET}; per miss it calls, beyond one move_to_end:\n"
        + "\n".join(KernelSteps.lines(steps.miss, steps.misses))
    )


def test_calls_per_hash_op(graph):
    """A touch is the operation, its charge and one ``dict.get``; the
    table's size is a number it keeps, not a ``len`` it takes."""
    ops = [graph.find(HASH_TABLE, qualname) for qualname in HASH_OPS]
    assert None not in ops, f"the hash table is no longer {HASH_OPS}"
    touches = sum(graph.calls(op) for op in ops)
    assert touches >= graph.children  # PHJ probes once per child
    calls = sum(graph.calls(op) * (1.0 + graph.beneath(op)) for op in ops)
    per_op = calls / touches
    assert per_op <= HASH_OP_BUDGET, (
        f"{per_op:.2f} calls per hash-table insert / probe, budget "
        f"{HASH_OP_BUDGET}; per operation it calls:\n" + "\n".join(
            line for op in ops
            for line in [_name(op).rsplit("/", 1)[-1], *graph.callees(op, None, 1)]
        )
    )
    sized = {
        edge: n for edge, n in graph.edges_out_of(HASH_TABLE).items()
        if edge[1] == LOOP_BUILTINS[0]
    }
    assert not sized, f"the hash table recomputes its size with len: {sized}"


def test_join_probe_loops_run_through_the_kernel(graph):
    """PHJ's and NOJOIN's probe sides are each a ``_next`` that calls
    ``ObjectManager.fetch`` once per batch and brackets no child itself;
    the kernel calls the row function once per scanned child.  No
    ``len`` / ``next`` / ``append`` out of ``joins.py``, and under
    :data:`LOOP_OVERHEAD_BUDGET` calls of loop per scanned child."""
    counted = {
        edge: n for edge, n in graph.edges_out_of(JOINS).items()
        if edge[1] in LOOP_BUILTINS
    }
    assert not counted, f"a join loop counts its batch by hand: {counted}"
    loops = [graph.find(JOINS, qualname) for qualname in JOIN_LOOPS]
    assert None not in loops, f"the joins are no longer {JOIN_LOOPS}"
    kernel = graph.find(*KERNEL)
    brackets = {graph.find(*root) for root in BRACKET_ROOTS}
    overhead = 0
    for loop, qualname in zip(loops, JOIN_LOOPS):
        callees = {
            edge.code: edge.callcount for edge in graph.by_code[loop].calls
        }
        assert 0 < callees.get(kernel, 0) == graph.calls(loop), (
            f"{qualname} does not hand each batch to the kernel once"
        )
        assert not brackets & callees.keys(), f"{qualname} borrows a child"
        row = graph.find(JOINS, f"{qualname}.<locals>.row")
        assert graph.calls(row) == graph.children, (
            f"{graph.calls(row)} row-function calls from {qualname} for "
            f"{graph.children} children scanned"
        )
        overhead += graph.calls(loop) + graph.calls(row)
    per_child = overhead / (2 * graph.children)
    assert per_child <= LOOP_OVERHEAD_BUDGET, (
        f"{per_child:.3f} loop-overhead calls per scanned child, budget "
        f"{LOOP_OVERHEAD_BUDGET}"
    )


# -------------------------------------------------------- warm read path

#: Patients the warm selection fetches: ten leaves' worth of entries,
#: fewer than the delayed-free list parks, so the second run hits every
#: handle.
WARM_ROWS = 2000


def _warm_graph(snapshot: bool) -> CallGraph:
    derby = load_derby(DerbyConfig.db_1to3(scale=0.001))
    engine = OQLEngine(Catalog.from_derby(derby))
    if snapshot:
        txm = TransactionManager(derby.db, recovery=True)
        derby.db.manager.read_view = txm.begin(isolation="si").view
    text = f"select p.age from p in Patients where p.mrn <= {WARM_ROWS}"
    warm = engine.execute(text)  # pages cached, handles parked
    assert len(warm) == WARM_ROWS < derby.db.handles.delayed_free_capacity
    allocated = derby.db.counters.handles_allocated
    profile = cProfile.Profile()
    profile.enable()
    rows = engine.execute(text)
    profile.disable()
    assert rows == warm
    assert derby.db.counters.handles_allocated == allocated  # all hits
    return CallGraph(profile.getstats())


@pytest.fixture(scope="module")
def warm_graph() -> CallGraph:
    return _warm_graph(snapshot=False)


@pytest.fixture(scope="module")
def snapshot_graph() -> CallGraph:
    """The warm selection inside a snapshot-isolation transaction that
    no writer has run beside: every record it reads is live."""
    return _warm_graph(snapshot=True)


def test_calls_per_warm_bracket(warm_graph):
    """A hit runs no ``borrow`` / ``__enter__`` / ``__exit__`` frame:
    the kernel brackets it with the builtins it calls itself, so the
    bracket is the kernel's builtin calls per row function call, the
    result ``append`` apart, plus its own frame's share."""
    kernel = warm_graph.find(*KERNEL)
    assert kernel is not None, f"the kernel is no longer {KERNEL}: re-derive"
    assert [
        warm_graph.calls(warm_graph.find(*root)) for root in BRACKET_ROOTS
    ] == [0, 0, 0]
    steps = {
        _name(edge.code): edge.callcount
        for edge in warm_graph.by_code[kernel].calls
    }
    brackets = sum(n for name, n in steps.items() if not name.startswith("<"))
    assert brackets == WARM_ROWS  # one row function call per rid
    builtins = {
        name: n for name, n in steps.items()
        if name.startswith("<") and name != LOOP_BUILTINS[2]
    }
    per_bracket = (warm_graph.calls(kernel) + sum(builtins.values())) / brackets
    assert per_bracket <= WARM_BRACKET_BUDGET, (
        f"{per_bracket:.2f} calls per bracket on a handle hit, budget "
        f"{WARM_BRACKET_BUDGET}; per bracket the kernel calls:\n" + "\n".join(
            f"{n / brackets:6.2f} x {name}" for name, n in builtins.items()
        )
    )


def _calls_per_fetched_row(graph: CallGraph, budget: float) -> None:
    fetch = graph.find("repro/exec/operators/scans.py", "Fetch._next")
    beneath = graph.calls(fetch) * graph.beneath(fetch)
    per_row = beneath / WARM_ROWS
    assert per_row <= budget, (
        f"{per_row:.2f} calls beneath Fetch._next per scanned rid, budget "
        f"{budget}; per _next it calls:\n" + "\n".join(graph.callees(fetch))
    )


def test_calls_per_fetched_row(warm_graph):
    _calls_per_fetched_row(warm_graph, FETCHED_ROW_BUDGET)


def test_calls_per_fetched_row_under_a_snapshot(snapshot_graph):
    _calls_per_fetched_row(snapshot_graph, SNAPSHOT_ROW_BUDGET)


def test_calls_per_index_entry(warm_graph):
    roots = [
        warm_graph.find(BTREE, name)
        for name in ("BTreeIndex.rid_scan", "BTreeIndex._leaf_runs")
    ]
    assert None not in roots, "the rid scan moved: re-derive this budget"
    # The scan decodes no leaf: a leaf the index wrote answers its run
    # from the rid column kept beside it.  Its leaf reads go straight
    # to the storage file, one per leaf visited.
    decode_leaf = warm_graph.find(BTREE, "BTreeIndex._decode_leaf")
    assert warm_graph.calls(decode_leaf) == 0
    read_leaf = warm_graph.find("repro/storage/file.py", "StorageFile.read")
    leaf_reads = warm_graph.edges_out_of(BTREE).get(
        ("btree.py:BTreeIndex._leaf_runs", _name(read_leaf)), 0
    )
    assert WARM_ROWS // 200 <= leaf_reads <= WARM_ROWS // 200 + 1
    calls = sum(
        warm_graph.calls(root) * (1.0 + warm_graph.beneath(root, read_leaf))
        for root in roots
    )
    per_entry = calls / WARM_ROWS
    assert per_entry < INDEX_ENTRY_BUDGET, (
        f"{per_entry:.3f} calls per index entry scanned, budget "
        f"{INDEX_ENTRY_BUDGET}; the scan calls:\n" + "\n".join(
            line for root in roots
            for line in [_name(root).rsplit("/", 1)[-1],
                         *warm_graph.callees(root, read_leaf, 1)]
        )
    )


# ------------------------------------------------------------ write path

def _profiled_load(config: DerbyConfig) -> CallGraph:
    load_derby(config)  # struct formats cached, modules warm
    profile = cProfile.Profile()
    profile.enable()
    derby = load_derby(config)
    profile.disable()
    assert derby.load_report.objects_created == 1200
    return CallGraph(profile.getstats())


@pytest.fixture(scope="module")
def load_graph() -> CallGraph:
    return _profiled_load(DerbyConfig.db_1to3(scale=0.0003))


@pytest.fixture(scope="module")
def per_object_load_graph() -> CallGraph:
    """The same load, each object created by ``Transaction.create_object``
    and stored by ``StorageFile.insert``, as the loader did before the
    create kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Transaction, "create_objects", create_each)
        return _profiled_load(DerbyConfig.db_1to3(scale=0.0003))


@pytest.fixture(scope="module")
def index_after_graph() -> CallGraph:
    """The Section 3.2 order: load, then index -- every object's header
    is rewritten once per index, and the first rewrite grows it."""
    return _profiled_load(
        replace(DerbyConfig.db_1to3(scale=0.0003), index_first=False)
    )


def _assert_calls_per(graph, file_suffix, qualname, at_least, budget):
    root = graph.find(file_suffix, qualname)
    assert graph.calls(root) >= at_least
    per_call = 1.0 + graph.beneath(root)
    assert per_call <= budget, (
        f"{per_call:.2f} calls per {qualname}, budget {budget}; "
        "per call it calls:\n" + "\n".join(graph.callees(root))
    )


def _assert_calls_per_object(graph, file_suffix, qualname, objects, budget):
    """A kernel's calls, its own and everything beneath, per object it
    handles: ``objects`` of them over all its calls."""
    root = graph.find(file_suffix, qualname)
    assert graph.calls(root) >= 1
    per_object = graph.calls(root) * (1.0 + graph.beneath(root)) / objects
    assert per_object <= budget, (
        f"{per_object:.2f} calls per object of {qualname}, budget {budget}; "
        "per call it calls:\n" + "\n".join(graph.callees(root))
    )


@pytest.mark.parametrize("graph_name, file_suffix, qualname, at_least, budget", [
    ("per_object_load_graph", "repro/txn/manager.py",
     "Transaction.create_object", 1200, CREATE_OBJECT_BUDGET),
    ("per_object_load_graph", "repro/storage/file.py", "StorageFile.insert",
     1200, INSERT_BUDGET),
    ("load_graph", MANAGER, "ObjectManager.update_set", 300, UPDATE_SET_BUDGET),
], ids=["create_object", "insert", "update_set"])  # no budget in a test's name
def test_calls_per_write(
    request, graph_name, file_suffix, qualname, at_least, budget
):
    _assert_calls_per(
        request.getfixturevalue(graph_name), file_suffix, qualname, at_least,
        budget,
    )


def test_calls_per_object_created(load_graph):
    """The load's 300 providers and 900 patients, through the kernel."""
    _assert_calls_per_object(
        load_graph, "repro/objects/database.py", "Database.create_objects",
        1200, CREATE_KERNEL_BUDGET,
    )


def test_calls_per_rewrite_header(index_after_graph):
    """Three indexes over 300 providers and 900 + 900 patient entries:
    the header pass per member."""
    _assert_calls_per_object(
        index_after_graph, MANAGER, "ObjectManager.stamp_index", 2100,
        HEADER_PASS_BUDGET,
    )


#: ``MeterSnapshot`` constructions a mix may make beyond one per session
#: (a session's ``meters`` is built when it is read: once per session
#: when the mix records its stats).
SNAPSHOTS_BEYOND_SESSIONS = 2


def test_a_context_switch_builds_no_meter_snapshot(monkeypatch):
    """A context switch adds the meters' change into the outgoing
    session's share; it builds no frozen ``MeterSnapshot`` (2-3 us each,
    and ``pstats`` files every dataclass ``__init__`` under one key, so
    no profile summary shows them).  The constructions are counted by
    wrapping ``MeterSnapshot.__init__``, which sees every thread the
    mix starts, and held to the sessions plus a constant, however many
    switches the mix makes."""
    from repro.service import MixConfig, WorkloadMixer
    from repro.simtime import MeterSnapshot
    from repro.stats import StatsDatabase

    built = 0
    init = MeterSnapshot.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    mixer = WorkloadMixer(
        load_derby(DerbyConfig.db_1to3(scale=0.00001)),
        MixConfig.from_clients(4, ops_per_client=3, seed=5),
        stats=StatsDatabase(),
    )
    monkeypatch.setattr(MeterSnapshot, "__init__", counting)
    report = mixer.run()
    monkeypatch.undo()
    budget = len(report.sessions) + SNAPSHOTS_BEYOND_SESSIONS
    assert report.context_switches > 3 * budget
    assert built <= budget, (
        f"{built} MeterSnapshots over {report.context_switches} context "
        f"switches and {len(report.sessions)} sessions, budget {budget}"
    )
