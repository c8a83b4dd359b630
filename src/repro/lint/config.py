"""simlint configuration: defaults here, overrides in ``pyproject.toml``.

Everything under ``[tool.simlint]`` maps onto :class:`LintConfig`; the
shipped defaults describe *this* repository (its layer order, its
charging idiom), so external callers and fixtures override them
explicitly.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path

#: The substrate layering of docs/architecture.md, lowest first.  A
#: module in layer N may import layers < N (module-level imports only;
#: ``if TYPE_CHECKING`` and function-scoped imports are exempt — see
#: the LAYER rule).
DEFAULT_LAYER_ORDER = (
    "units",
    "errors",
    "simtime",
    "storage",
    "buffer",
    "objects",
    "index",
    "txn",
    "stats",
    "derby",
    "exec",
    "cluster",
    "oo7",
    "oql",
    "opt",
    "recovery",
    "bench",
    "service",
    "dist",
    "analysis",
    "lint",
    "cli",
    "__main__",
)

#: Packages whose functions must charge the clock/counters when they
#: touch pages, handles or RPC paths (the CHARGE rule's scope).
DEFAULT_CHARGE_PACKAGES = ("storage", "buffer", "exec", "objects")

#: Calling a method with one of these names counts as touching a costed
#: resource (page path, record path, handle path).
DEFAULT_TOUCH_METHODS = (
    "read_page",
    "write_page",
    "get_page",
    "peek_page",
    "iter_pages",
    "mark_dirty",
    "read_resolving",
    "read_record",
    "load",
    "unref",
    "unreference",
    "_page",
    "_file",
)

#: Reading or writing an attribute with one of these names counts as
#: touching raw storage/handle state directly.
DEFAULT_TOUCH_ATTRS = ("_durable", "_live", "_parked")

#: The charging idiom: these calls (SimClock), an in-place add into its
#: bucket map (``<map>[Bucket.X] += seconds``, recognised by its key) or
#: any assignment through an attribute chain containing ``counters``
#: (CounterSet) discharge the CHARGE obligation.
DEFAULT_CHARGE_CALLS = ("charge_ms", "charge_us", "charge_s")
DEFAULT_COUNTER_NAMES = ("counters",)

#: (open, close) method-name pairs the PAIR rule tracks.
DEFAULT_PAIRS = (
    ("load", "unref"),
    ("acquire", "release_all"),
    ("pin", "unpin"),
)

#: Cleanup calls that must not be skippable by an earlier exception.
DEFAULT_CLEANUP_CALLS = ("release_all",)

#: Calls that ARE cooperative suspension points: the scheduler's own
#: primitives plus the voluntary session-level yields.  Seeds of the
#: may-yield closure (see ``repro.lint.callgraph``).
DEFAULT_YIELD_CALLS = (
    "yield_point",
    "batch_point",
    "wait_for_lock",
    "wait_for_admission",
    "pause",
)

#: Calls that can suspend the caller *indirectly*: the pager path (a
#: client page fault hands the baton to the scheduler via the
#: ``on_fault`` hook) and lock acquisition (an incompatible ``acquire``
#: parks the session on the lock queue).
DEFAULT_FAULT_CALLS = (
    "get_page",
    "read_page",
    "read_resolving",
    "read_record",
    "load",
    "borrow",
    "acquire",
)

#: Packages whose shared server-tier state the ATOM rule protects.
DEFAULT_ATOM_PACKAGES = ("service", "txn", "dist", "recovery", "buffer")

#: Attribute names that hold shared server-tier state: scheduler run
#: queues, lock tables, buffer tables, WAL buffers, governor counters,
#: 2PC decision logs.  A read-modify-write of ``<recv>.<attr>`` that
#: spans a may-yield call needs a guard or a justified suppression.
DEFAULT_ATOM_STATE_ATTRS = (
    # scheduler
    "_tasks",
    "_blocked_txns",
    "_blocked_admission",
    "_rr_next",
    "context_switches",
    "batch_yields",
    # lock manager
    "granted",
    "queue",
    "_queue",
    "_active",
    # buffer / WAL
    "records",
    "pending_bytes",
    "dirty_pages",
    "durable_lsn",
    # txn manager / governor
    "_next_txn_id",
    "committed",
    "aborted",
    "_guards",
    "_cancelled",
    "interrupts",
    "admissions",
    "queued_admissions",
    "max_queue_depth",
    # 2PC
    "branches",
    "staged",
    "acked_globals",
    "write_log",
    "seen",
)

#: A ``with`` statement whose context chain contains one of these names
#: is a critical bracket for ATOM (``with self._cv: ...``).
DEFAULT_ATOM_GUARDS = ("_cv", "lock", "mutex", "_mutex", "guard")

#: An explicit lock acquisition earlier in the function also counts as
#: holding the bracket (strict-2PL code paths).
DEFAULT_ATOM_LOCK_CALLS = ("acquire",)

#: PROTO txn-lifecycle vocabulary.
DEFAULT_PROTO_BEGIN_CALLS = ("begin",)
DEFAULT_PROTO_COMMIT_CALLS = ("commit",)
DEFAULT_PROTO_ABORT_CALLS = ("abort", "rollback")
#: ``with``-context call names that own completion themselves: a txn
#: begun as ``with txm.begin(...)`` / ``with session.transaction()``
#: commits or aborts in ``__exit__``, so the body owes nothing.
DEFAULT_PROTO_TXN_CONTEXTS = ("begin", "transaction")
#: WAL record kinds whose append must be followed by a flush on the
#: same log before the function returns (the force-write points).
DEFAULT_PROTO_FORCED_KINDS = ("commit", "prepare", "checkpoint")
#: Calls that stage a 2PC prepare round.
DEFAULT_PROTO_PREPARE_CALLS = ("_make_prepare", "prepare")
#: Receiver-chain component naming the coordinator decision log.
DEFAULT_PROTO_DECISION_CHAINS = ("decision_log",)
#: The only calls allowed to take a ``resolve_in_doubt=`` argument.
DEFAULT_PROTO_RESTART_CALLS = ("restart",)
#: Calls that apply a failover promotion (rewrite the shard route to a
#: new primary).  Each must be fenced: an ``"epoch"`` record appended
#: *and flushed* through a decision-log chain earlier in the function.
DEFAULT_PROTO_PROMOTE_CALLS = ("rewrite",)

#: Calls returning scoped handles that must not escape their ``with``
#: block (the ESCAPE rule).
DEFAULT_ESCAPE_CALLS = ("borrow",)
#: Container-mutation method names that count as storing the handle.
DEFAULT_ESCAPE_SINKS = (
    "append",
    "add",
    "insert",
    "extend",
    "appendleft",
    "setdefault",
    "push",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved simlint configuration."""

    paths: tuple[str, ...] = ("src/repro",)
    select: tuple[str, ...] = (
        "DET",
        "CHARGE",
        "LAYER",
        "PAIR",
        "EXC",
        "ATOM",
        "PROTO",
        "ESCAPE",
    )
    #: Root package whose first path component names the layer.
    root_package: str = "repro"
    layer_order: tuple[str, ...] = DEFAULT_LAYER_ORDER
    #: Extra allowed upward edges, package -> importable packages.
    layer_allow: dict[str, tuple[str, ...]] = field(default_factory=dict)
    charge_packages: tuple[str, ...] = DEFAULT_CHARGE_PACKAGES
    charge_touch_methods: tuple[str, ...] = DEFAULT_TOUCH_METHODS
    charge_touch_attrs: tuple[str, ...] = DEFAULT_TOUCH_ATTRS
    charge_calls: tuple[str, ...] = DEFAULT_CHARGE_CALLS
    counter_names: tuple[str, ...] = DEFAULT_COUNTER_NAMES
    pair_pairs: tuple[tuple[str, str], ...] = DEFAULT_PAIRS
    cleanup_calls: tuple[str, ...] = DEFAULT_CLEANUP_CALLS
    yield_calls: tuple[str, ...] = DEFAULT_YIELD_CALLS
    fault_calls: tuple[str, ...] = DEFAULT_FAULT_CALLS
    atom_packages: tuple[str, ...] = DEFAULT_ATOM_PACKAGES
    atom_state_attrs: tuple[str, ...] = DEFAULT_ATOM_STATE_ATTRS
    atom_guards: tuple[str, ...] = DEFAULT_ATOM_GUARDS
    atom_lock_calls: tuple[str, ...] = DEFAULT_ATOM_LOCK_CALLS
    proto_begin_calls: tuple[str, ...] = DEFAULT_PROTO_BEGIN_CALLS
    proto_commit_calls: tuple[str, ...] = DEFAULT_PROTO_COMMIT_CALLS
    proto_abort_calls: tuple[str, ...] = DEFAULT_PROTO_ABORT_CALLS
    proto_txn_contexts: tuple[str, ...] = DEFAULT_PROTO_TXN_CONTEXTS
    proto_forced_kinds: tuple[str, ...] = DEFAULT_PROTO_FORCED_KINDS
    proto_prepare_calls: tuple[str, ...] = DEFAULT_PROTO_PREPARE_CALLS
    proto_decision_chains: tuple[str, ...] = DEFAULT_PROTO_DECISION_CHAINS
    proto_restart_calls: tuple[str, ...] = DEFAULT_PROTO_RESTART_CALLS
    proto_promote_calls: tuple[str, ...] = DEFAULT_PROTO_PROMOTE_CALLS
    escape_calls: tuple[str, ...] = DEFAULT_ESCAPE_CALLS
    escape_sinks: tuple[str, ...] = DEFAULT_ESCAPE_SINKS
    #: Directory paths are made relative to; set by load_config.
    root: str = "."


def _tuple(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise TypeError(f"expected a list, got {value!r}")


def config_from_mapping(data: dict, root: str = ".") -> LintConfig:
    """Build a config from a ``[tool.simlint]`` mapping."""
    config = LintConfig(root=root)
    simple = {
        "paths": _tuple,
        "select": _tuple,
        "layer_order": _tuple,
        "charge_packages": _tuple,
        "charge_touch_methods": _tuple,
        "charge_touch_attrs": _tuple,
        "charge_calls": _tuple,
        "counter_names": _tuple,
        "cleanup_calls": _tuple,
        "yield_calls": _tuple,
        "fault_calls": _tuple,
        "atom_packages": _tuple,
        "atom_state_attrs": _tuple,
        "atom_guards": _tuple,
        "atom_lock_calls": _tuple,
        "proto_begin_calls": _tuple,
        "proto_commit_calls": _tuple,
        "proto_abort_calls": _tuple,
        "proto_txn_contexts": _tuple,
        "proto_forced_kinds": _tuple,
        "proto_prepare_calls": _tuple,
        "proto_decision_chains": _tuple,
        "proto_restart_calls": _tuple,
        "proto_promote_calls": _tuple,
        "escape_calls": _tuple,
        "escape_sinks": _tuple,
        "root_package": str,
    }
    updates: dict = {}
    for key, convert in simple.items():
        if key in data:
            updates[key] = convert(data[key])
    if "pair_pairs" in data:
        updates["pair_pairs"] = tuple(
            (str(open_name), str(close_name))
            for open_name, close_name in data["pair_pairs"]
        )
    if "layer_allow" in data:
        updates["layer_allow"] = {
            str(k): _tuple(v) for k, v in data["layer_allow"].items()
        }
    return replace(config, **updates)


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: str | Path = ".") -> LintConfig:
    """Load ``[tool.simlint]`` from the nearest pyproject.toml;
    defaults when there is none."""
    pyproject = find_pyproject(Path(start))
    if pyproject is None:
        return LintConfig()
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    section = data.get("tool", {}).get("simlint", {})
    return config_from_mapping(section, root=str(pyproject.parent))
