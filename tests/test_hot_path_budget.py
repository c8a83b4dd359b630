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

A cold query misses the handle table on most brackets, so the miss has
a budget of its own: the bracket's stops at ``read_record``, and the
calls beneath one ``read_record`` -- one per layer it crosses, down to
the slot probe, plus the page fault when there is one -- are held
separately.  So is a hash-table insert or probe, which knows the
table's size and neither recomputes it nor reaches the clock through a
call.

The same profile holds the joins' row loops to their shape: each is a
generator resumed once per row it emits, so what the loop itself costs
-- beyond the brackets, reads and probes that are the algorithm -- is
under one call per child scanned, and nothing in ``joins.py`` counts its
batch with ``len``, ``next`` and ``append``.

The warm read path has the same contract: everything a statement cannot
change -- prices, the row function's shape, the bracket -- is resolved
before the row loop, so a row fetched through a warm handle is a dozen
calls and an index entry a fiftieth of one.  One indexed selection run
twice through ``OQLEngine.execute``, the second time under ``cProfile``,
holds the bracket on a handle hit, the calls beneath ``Fetch._next`` per
scanned rid and the calls of the range scan per entry to budget.

The write path has the same contract (the paper's Section 3: loading is
what eats a benchmarking campaign): the record writer, the header bytes
and the slack arithmetic are resolved once per class version or per
file, so a create is about twenty calls however the class is declared.
One tiny ``load_derby`` under ``cProfile`` holds the calls beneath one
``Transaction.create_object`` and one ``StorageFile.insert`` to budget.
What a load knows once it resolves once: which transaction mode it is
in, the codec, header bytes and file of the class it creates into, the
tail page of the file -- and a mutation that has just read a record
neither probes its slot again nor searches an empty handle table.  The
same load holds one ``ObjectManager.update_set`` (the association pass)
to budget, and one with ``index_first=False`` holds one
``ObjectManager.rewrite_header`` (the Section 3.2 index-after pass).
"""

from __future__ import annotations

import ast
import cProfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.oql import Catalog, OQLEngine

#: Calls made by one ``ObjectManager.get_attr``, itself included,
#: averaged over the attributes the two joins read (measured: 3.18; 3.35
#: when a literal's handle was a ``charge_literal`` call; 4.53 when the
#: decode and literal charges were ``charge_us`` calls, 29.5 before the
#: per-class-version attribute tables).
GET_ATTR_BUDGET = 3.5
#: Calls made by one ``with om.borrow(rid) as h:`` bracket -- ``borrow``
#: plus ``__enter__`` plus ``__exit__`` and everything beneath them --
#: not counting the record read on a handle miss.  On the joins, where
#: 86 % of brackets miss and spend 1 more in ``Handle.__init__``,
#: measured: 5.86 (7.72 when ``borrow`` called the table's ``reference``
#: and ``allocate`` and ``__exit__`` its ``unreference``; 7.86 when a
#: hit popped its handle out of the parked list; 8.72 when ``allocate``
#: kept a peak with ``len``; 14.72 when the bracket was a ``_Borrow``
#: object around ``load``/``unref`` and every charge a ``charge_us``
#: call).
BRACKET_BUDGET = 6.4
#: Calls made by one ``ObjectManager.read_record`` -- what a handle miss
#: adds to its bracket -- itself included: ``read_resolving``,
#: ``get_page`` and its ``move_to_end`` on a client hit, ``Page.resolve``,
#: and on the 19 % of misses that fault, the server probe, the disk read
#: and the admissions (measured: 7.88, 5 when the page is resident;
#: 8.88 when a client hit went through ``BufferCache.lookup``;
#: 9.26 when a cache miss was a ``move_to_end`` raising ``KeyError``;
#: 26.07 when the slot was probed twice behind ``len`` and
#: ``isinstance``, the class looked up through ``peek_*`` and
#: ``class_version`` per record and ``lookup`` a ``get`` then a
#: ``move_to_end``).
MISS_BUDGET = 8.7
#: Calls made by one ``QueryHashTable.insert`` or ``probe``, itself
#: included: the touch charge and the ``dict.get`` (measured: 3.00; 7.00
#: when the charge went through ``charge_us`` and ``swapped_fraction``
#: -> ``table_bytes`` -> ``len``).
HASH_OP_BUDGET = 3.3
#: The same bracket when the handle is parked, as it is on every row of
#: a warm selection: ``borrow`` and its ``dict.get``, ``__enter__``,
#: ``__exit__`` and its ``move_to_end`` back into the delayed-free order
#: (measured: 5.00; 6.00 with the table's ``reference`` and
#: ``unreference`` frames; 7.00 when a hit popped the handle out of the
#: parked list and parking took its ``len``; 13.00 before).
WARM_BRACKET_BUDGET = 5.5
#: Calls beneath ``Fetch._next`` per rid it scans, on a warm indexed
#: single-attribute selection: the bracket, the row function, one
#: ``get_attr``, the result append (measured: 10.03; 11.03 with the
#: table's ``reference`` and ``unreference`` frames in the bracket; 12.04
#: with the parked ``pop`` and ``len`` in the bracket; 29.03 with the
#: generic row function, ``charge_result`` and ``len(out)`` per row).
FETCHED_ROW_BUDGET = 11.0
#: Calls made by the range scan per ``(key, rid)`` entry it yields, the
#: leaf reads apart: per 200-entry leaf one generator step, the count,
#: the keys, the bisections and the run's rids (measured: 0.030; 0.041
#: when each leaf was decoded whole through ``_read_leaf`` and measured
#: with ``len``; 2.00 with a filter and an ``IndexEntry`` per entry).
INDEX_ENTRY_BUDGET = 0.1

#: Calls made by one ``Transaction.create_object`` of an unlogged load,
#: itself included, down through the record writer, the storage file and
#: the page caches (measured: 21.71; 30.26 when the record body merged
#: the defaults under the values, ran one coercer frame per attribute and
#: packed each ref on its own; 38.89 when every create checked the
#: transaction's state and mode through a method and a property, probed
#: the schema, the codec table, the header cache and the file table,
#: charged through ``charge_us`` and asked the disk for the file's tail;
#: 108.56 when it also re-derived the attribute lists, built and encoded
#: an ``ObjectHeader`` and packed attribute by attribute).
CREATE_OBJECT_BUDGET = 23.9
#: Calls made by one ``StorageFile.insert``, itself included -- objects,
#: collection chunks and index leaves alike (measured: 10.98; 13.56 when
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
#: Calls made by one ``ObjectManager.rewrite_header``, itself included,
#: on an ``index_first=False`` load (measured: 21.94; 34.02 with the
#: same second and third slot probes, ``mark_dirty`` and handle probes).
REWRITE_HEADER_BUDGET = 24.1

#: Calls a join's row loop makes per child it scans that are not the
#: algorithm's own work: the resumes of its generator, there being no
#: ``len`` / ``next`` / ``append`` out of ``joins.py`` (measured: 0.54 at
#: 50/50, where every second child emits a row -- it cannot pass rows
#: emitted per child; 2.54 when each loop counted its batch with
#: ``len``, pulled with ``next`` and collected with ``append``).
LOOP_OVERHEAD_BUDGET = 0.6

MANAGER = "repro/objects/manager.py"
HANDLE = "repro/objects/handle.py"
HASH_TABLE = "repro/exec/hash_table.py"
BTREE = "repro/index/btree.py"
JOINS = "repro/exec/operators/joins.py"
JOIN_LOOPS = ("NavigationChildToParent._rows", "HashParentsJoin._rows")
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
#: Where the bracket's subtree stops and the miss's starts: the loader
#: crosses the storage and buffer layers and has its own budget.
LOADER = "ObjectManager.read_record"
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
    children = sum(1 for __ in runner.tree_query(50, 50).selected_children())
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
    assert brackets > 500
    assert [graph.calls(root) for root in roots] == [brackets] * 3
    per_bracket = sum(1.0 + graph.beneath(root, loader) for root in roots)
    return per_bracket, "\n".join(
        line for root in roots
        for line in [_name(root).rsplit("/", 1)[-1],
                     *graph.callees(root, loader, 1)]
    )


def test_calls_per_borrow_bracket(graph):
    per_bracket, subtree = _calls_per_bracket(graph)
    assert per_bracket <= BRACKET_BUDGET, (
        f"{per_bracket:.2f} calls per borrow bracket, budget "
        f"{BRACKET_BUDGET}; per bracket it calls:\n{subtree}"
    )


def test_calls_per_handle_miss(graph):
    loader = graph.find(MANAGER, LOADER)
    borrow = graph.find(*BRACKET_ROOTS[0])
    misses = graph.calls(loader)
    assert 500 < misses <= graph.calls(borrow)
    per_miss = 1.0 + graph.beneath(loader)
    assert per_miss <= MISS_BUDGET, (
        f"{per_miss:.2f} calls per handle miss (read_record and beneath), "
        f"budget {MISS_BUDGET}; per miss it calls:\n"
        + "\n".join(graph.callees(loader))
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


def test_join_loops_are_generators(graph):
    """No ``len`` / ``next`` / ``append`` out of ``joins.py``, one
    generator resume per emitted row (and the one that ends it), and so
    under one loop-overhead call per scanned child."""
    counted = {
        edge: n for edge, n in graph.edges_out_of(JOINS).items()
        if edge[1] in LOOP_BUILTINS
    }
    assert not counted, f"a join loop counts its batch by hand: {counted}"
    loops = [graph.find(JOINS, qualname) for qualname in JOIN_LOOPS]
    assert None not in loops, f"the joins are no longer {JOIN_LOOPS}"
    resumes = [graph.calls(loop) for loop in loops]
    assert all(0 < n <= graph.rows + 1 for n in resumes), (
        f"{resumes} generator resumes for {graph.rows} rows emitted"
    )
    per_child = sum(resumes) / (2 * graph.children)
    assert per_child <= LOOP_OVERHEAD_BUDGET, (
        f"{per_child:.2f} loop-overhead calls per scanned child, budget "
        f"{LOOP_OVERHEAD_BUDGET}"
    )


# -------------------------------------------------------- warm read path

#: Patients the warm selection fetches: ten leaves' worth of entries,
#: fewer than the delayed-free list parks, so the second run hits every
#: handle.
WARM_ROWS = 2000


@pytest.fixture(scope="module")
def warm_graph() -> CallGraph:
    derby = load_derby(DerbyConfig.db_1to3(scale=0.001))
    engine = OQLEngine(Catalog.from_derby(derby))
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


def test_calls_per_warm_bracket(warm_graph):
    per_bracket, subtree = _calls_per_bracket(warm_graph)
    assert per_bracket <= WARM_BRACKET_BUDGET, (
        f"{per_bracket:.2f} calls per borrow bracket on a handle hit, "
        f"budget {WARM_BRACKET_BUDGET}; per bracket it calls:\n{subtree}"
    )


def test_calls_per_fetched_row(warm_graph):
    fetch = warm_graph.find("repro/exec/operators/scans.py", "Fetch._next")
    beneath = warm_graph.calls(fetch) * warm_graph.beneath(fetch)
    per_row = beneath / WARM_ROWS
    assert per_row <= FETCHED_ROW_BUDGET, (
        f"{per_row:.2f} calls beneath Fetch._next per scanned rid, budget "
        f"{FETCHED_ROW_BUDGET}; per _next it calls:\n"
        + "\n".join(warm_graph.callees(fetch))
    )


def test_calls_per_index_entry(warm_graph):
    roots = [
        warm_graph.find(BTREE, name)
        for name in ("BTreeIndex.range_scan", "BTreeIndex._leaf_runs")
    ]
    assert None not in roots, "the range scan moved: re-derive this budget"
    # The scan decodes a run, never a whole leaf: its leaf reads go
    # straight to the storage file, one per leaf visited.
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


@pytest.mark.parametrize("file_suffix, qualname, at_least, budget", [
    ("repro/txn/manager.py", "Transaction.create_object", 1200,
     CREATE_OBJECT_BUDGET),
    ("repro/storage/file.py", "StorageFile.insert", 1200, INSERT_BUDGET),
    (MANAGER, "ObjectManager.update_set", 300, UPDATE_SET_BUDGET),
], ids=["create_object", "insert", "update_set"])  # no budget in a test's name
def test_calls_per_write(load_graph, file_suffix, qualname, at_least, budget):
    _assert_calls_per(load_graph, file_suffix, qualname, at_least, budget)


def test_calls_per_rewrite_header(index_after_graph):
    """Three indexes over 300 providers and 900 + 900 patient entries."""
    _assert_calls_per(
        index_after_graph, MANAGER, "ObjectManager.rewrite_header", 2100,
        REWRITE_HEADER_BUDGET,
    )
