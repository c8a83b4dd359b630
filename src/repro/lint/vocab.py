"""simlint's vocabulary: the names the rules look for.

Every entry describes *this* repository (its layer order, its charging
idiom, its protocol calls) and is read directly by the rule that needs
it.  There is no settings file: a rule that should see another name
gets it here, in the same change as the code that introduces the name.
"""

#: Root package whose first path component names the layer.
ROOT_PACKAGE = "repro"

#: The substrate layering of docs/architecture.md, lowest first.  A
#: module in layer N may import layers < N (module-level imports only;
#: ``if TYPE_CHECKING`` and function-scoped imports are exempt — see
#: the LAYER rule).
LAYER_ORDER = (
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
    "service",
    "dist",
    "bench",
    "analysis",
    "lint",
    "cli",
    "__main__",
)

#: Packages whose functions must charge the clock/counters when they
#: touch pages, handles or RPC paths (the CHARGE rule's scope).
CHARGE_PACKAGES = ("storage", "buffer", "exec", "objects")

#: Calling a method with one of these names counts as touching a costed
#: resource (page path, record path, handle path).
TOUCH_METHODS = (
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
    "__exit__",
    "_page",
    "_file",
)

#: Reading or writing an attribute with one of these names counts as
#: touching raw storage/handle state directly.
TOUCH_ATTRS = ("_durable", "_handles")

#: The charging idiom: these calls (SimClock), an in-place add into its
#: bucket map (``<map>[_X] += seconds``, recognised by its key: ``Bucket.X``
#: or a module-level name bound to it) or
#: any assignment through an attribute chain containing ``counters``
#: (CounterSet) discharge the CHARGE obligation.
CHARGE_CALLS = ("charge_ms", "charge_us", "charge_s")
COUNTER_NAMES = ("counters",)

#: (open, close) method-name pairs the PAIR rule tracks.
PAIRS = (
    ("load", "unref"),
    ("acquire", "release_all"),
)

#: Cleanup calls that must not be skippable by an earlier exception.
CLEANUP_CALLS = ("release_all",)

#: Calls that ARE cooperative suspension points: the scheduler's own
#: primitives plus the voluntary session-level yields.  Seeds of the
#: may-yield closure (see ``repro.lint.callgraph``).
YIELD_CALLS = (
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
FAULT_CALLS = (
    "get_page",
    "read_page",
    "read_resolving",
    "read_record",
    "load",
    "borrow",
    "acquire",
)

#: Packages whose shared server-tier state the ATOM rule protects.
ATOM_PACKAGES = ("service", "txn", "dist", "recovery", "buffer")

#: Attribute names that hold shared server-tier state: scheduler run
#: queues, lock tables, buffer tables, WAL buffers, governor counters,
#: 2PC decision logs.  A read-modify-write of ``<recv>.<attr>`` that
#: spans a may-yield call needs a guard or a justified suppression.
ATOM_STATE_ATTRS = (
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
    "dirty_pages",
    "durable_lsn",
    # txn manager / the query service's budgets, cancels and admission
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
ATOM_GUARDS = ("_cv", "lock", "guard")

#: An explicit lock acquisition earlier in the function also counts as
#: holding the bracket (strict-2PL code paths).
ATOM_LOCK_CALLS = ("acquire",)

#: PROTO txn-lifecycle vocabulary.
PROTO_BEGIN_CALLS = ("begin",)
PROTO_COMMIT_CALLS = ("commit",)
PROTO_ABORT_CALLS = ("abort",)
#: WAL record kinds whose append must be followed by a flush on the
#: same log before the function returns (the force-write points).
PROTO_FORCED_KINDS = ("commit", "prepare", "checkpoint")
#: Calls that stage a 2PC prepare round.
PROTO_PREPARE_CALLS = ("_make_prepare", "prepare")
#: Receiver-chain component naming the coordinator decision log.
PROTO_DECISION_CHAINS = ("decision_log",)
#: The only calls allowed to take a ``resolve_in_doubt=`` argument.
PROTO_RESTART_CALLS = ("restart",)
#: Calls that apply a failover promotion (rewrite the shard route to a
#: new primary).  Each must be fenced: an ``"epoch"`` record appended
#: *and flushed* through a decision-log chain earlier in the function.
PROTO_PROMOTE_CALLS = ("rewrite",)

#: Calls returning scoped handles that must not escape their ``with``
#: block (the ESCAPE rule).
ESCAPE_CALLS = ("borrow",)
#: Calls that bracket each handle they borrow around a row function
#: and keep what it answers (``ObjectManager.fetch``).
ESCAPE_KERNELS = ("fetch",)
#: Container-mutation method names that count as storing the handle.
ESCAPE_SINKS = (
    "append",
    "add",
    "insert",
    "extend",
    "setdefault",
)
