"""The project-wide call graph with may-yield summaries.

This is the interprocedural layer the v2 rules (ATOM, PROTO, ESCAPE)
stand on, and the generalization of the name resolution the CHARGE rule
introduced.  Two resolution modes coexist on purpose:

* **name resolution** — ``x.f(...)`` resolves to *every* project
  function named ``f``.  Over-approximates reachability, which is the
  safe direction for CHARGE (a violation is "cannot possibly reach a
  charge"): the rule prefers missing a violation to inventing one.
* **attributed resolution** — a ``self.f(...)`` call inside class ``C``
  resolves to ``C.f`` alone when ``C`` defines ``f``; everything else
  falls back to name resolution.  Used for the may-yield closure, where
  precision trims false positives out of ATOM.

**May-yield** is the transitive closure of functions that can reach a
cooperative suspension point: the scheduler primitives
(:meth:`~repro.service.scheduler.CooperativeScheduler.yield_point`,
``batch_point``, ``wait_for_lock``, ``wait_for_admission``, voluntary
``pause``) or an indirect wait — the pager path (a client
page fault hands the baton over via the ``on_fault`` hook) and lock
acquisition (an incompatible ``acquire`` suspends the caller).  Every
function in the closure carries a human-readable call chain down to its
suspension point, which the ATOM findings quote.

The graph is built once per lint run (``Project.callgraph``) and shared
by every rule; ``to_dot()`` renders it — may-yield set highlighted —
for the CI ``lint-graph`` artifact.
"""

from __future__ import annotations

from repro.lint.project import CallSite, FunctionInfo, Project
from repro.lint.vocab import FAULT_CALLS, TOUCH_ATTRS, TOUCH_METHODS, YIELD_CALLS

#: Cap on the rendered suspension-chain text in findings.
_CHAIN_LIMIT = 160

#: Builtin container/primitive method names.  ``self._active.add(x)``
#: is a ``set.add``, not a project ``Index.add`` — resolving these by
#: bare name would drown the may-yield closure in false edges, so they
#: only resolve through class attribution (``self.add()`` inside a
#: class that defines ``add``).
_CONTAINER_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "count",
        "discard",
        "extend",
        "get",
        "index",
        "insert",
        "items",
        "keys",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
        "values",
    }
)


class CallGraph:
    """Resolved calls, charge/touch reachability and may-yield summaries."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: list[FunctionInfo] = project.functions
        self.defs_by_name = project.defs_by_name
        #: index of each function in ``functions`` (identity key).
        self._index: dict[int, int] = {
            id(info): i for i, info in enumerate(self.functions)
        }
        #: class name -> method name -> function (first definition wins;
        #: duplicate class names across modules are rare and benign).
        self.methods: dict[str, dict[str, FunctionInfo]] = {}
        for info in self.functions:
            if info.owner_class is not None:
                bucket = self.methods.setdefault(info.owner_class, {})
                bucket.setdefault(info.node.name, info)
        self._yield_chains: dict[int, str] | None = None
        self._touch_reasons: dict[int, str] | None = None
        self._reach_charge: set[int] | None = None

    # -- resolution ---------------------------------------------------------

    def resolve_site(
        self, caller: FunctionInfo, site: CallSite
    ) -> tuple[FunctionInfo, ...]:
        """Attributed resolution: ``self.f()`` binds to the enclosing
        class's own ``f`` when it has one; otherwise every project
        function named ``f`` (name resolution)."""
        if site.recv == ("self",) and caller.owner_class is not None:
            own = self.methods.get(caller.owner_class, {}).get(site.name)
            if own is not None:
                return (own,)
        if site.name in _CONTAINER_METHODS:
            return ()
        return tuple(self.defs_by_name.get(site.name, ()))

    # -- may-yield ----------------------------------------------------------

    def _direct_yield(self, info: FunctionInfo) -> str | None:
        """The first (source-order) suspension primitive this function
        calls directly, or None."""
        for site in info.call_sites:
            if site.name in YIELD_CALLS:
                return f"{site.name}() [scheduler yield point]"
            if site.name in FAULT_CALLS:
                return f"{site.name}() [page fault / lock wait]"
        return None

    def _compute_yield_chains(self) -> dict[int, str]:
        chains: dict[int, str] = {}
        for i, info in enumerate(self.functions):
            reason = self._direct_yield(info)
            if reason is not None:
                chains[i] = reason
        # Deterministic fixpoint: source order within a function, index
        # order across functions, first discovered chain wins.
        changed = True
        while changed:
            changed = False
            for i, info in enumerate(self.functions):
                if i in chains:
                    continue
                for site in info.call_sites:
                    hit = None
                    for callee in self.resolve_site(info, site):
                        j = self._index[id(callee)]
                        if j in chains and j != i:
                            hit = chains[j]
                            break
                    if hit is not None:
                        chain = f"{site.name}() -> {hit}"
                        if len(chain) > _CHAIN_LIMIT:
                            chain = chain[: _CHAIN_LIMIT - 3] + "..."
                        chains[i] = chain
                        changed = True
                        break
        return chains

    @property
    def yield_chains(self) -> dict[int, str]:
        if self._yield_chains is None:
            self._yield_chains = self._compute_yield_chains()
        return self._yield_chains

    def yield_chain(self, info: FunctionInfo) -> str | None:
        """The suspension chain for ``info``, or None if it cannot
        reach a yield point."""
        return self.yield_chains.get(self._index[id(info)])

    def site_may_yield(
        self, caller: FunctionInfo, site: CallSite
    ) -> str | None:
        """Can this *call site* suspend the caller?  Returns the chain
        text, or None.  A call is suspending when its bare name is a
        suspension primitive or any attributed resolution may yield."""
        if site.name in YIELD_CALLS:
            return f"{site.name}() [scheduler yield point]"
        if site.name in FAULT_CALLS:
            return f"{site.name}() [page fault / lock wait]"
        for callee in self.resolve_site(caller, site):
            if callee is caller:
                continue
            chain = self.yield_chain(callee)
            if chain is not None:
                return f"{site.name}() -> {chain}"
        return None

    # -- charge reachability (the CHARGE rule's queries) --------------------

    @property
    def reach_charge_set(self) -> set[int]:
        """Functions that can reach a charge call / counter bump through
        the *name-resolved* graph (reverse closure from the chargers)."""
        if self._reach_charge is None:
            reverse: dict[int, list[int]] = {}
            for i, info in enumerate(self.functions):
                for name in info.called_names:
                    for callee in self.defs_by_name.get(name, ()):
                        j = self._index[id(callee)]
                        reverse.setdefault(j, []).append(i)
            reached = {
                i
                for i, info in enumerate(self.functions)
                if info.charges_directly
            }
            frontier = list(reached)
            while frontier:
                j = frontier.pop()
                for i in reverse.get(j, ()):
                    if i not in reached:
                        reached.add(i)
                        frontier.append(i)
            self._reach_charge = reached
        return self._reach_charge

    def reaches_charge(self, info: FunctionInfo) -> bool:
        return self._index[id(info)] in self.reach_charge_set

    @property
    def touch_reasons(self) -> dict[int, str]:
        """function index -> why it touches a costed resource (directly
        or through a name-resolved callee)."""
        if self._touch_reasons is None:
            reasons: dict[int, str] = {}
            for i, info in enumerate(self.functions):
                direct_calls = info.called_names.intersection(TOUCH_METHODS)
                if direct_calls:
                    reasons[i] = f"calls {sorted(direct_calls)[0]}()"
                    continue
                direct_attrs = info.attr_names.intersection(TOUCH_ATTRS)
                if direct_attrs:
                    reasons[i] = f"accesses .{sorted(direct_attrs)[0]}"
            changed = True
            while changed:
                changed = False
                for i, info in enumerate(self.functions):
                    if i in reasons:
                        continue
                    for name in sorted(info.called_names):
                        hit = None
                        for callee in self.defs_by_name.get(name, ()):
                            j = self._index[id(callee)]
                            if j in reasons and j != i:
                                hit = reasons[j]
                                break
                        if hit is not None:
                            reasons[i] = f"calls {name}(), which {hit}"
                            changed = True
                            break
            self._touch_reasons = reasons
        return self._touch_reasons

    def touches(self, info: FunctionInfo) -> str | None:
        return self.touch_reasons.get(self._index[id(info)])

    # -- rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        """The attributed call graph as DOT, may-yield set highlighted
        and listed in a comment header (the CI ``lint-graph``
        artifact)."""
        chains = self.yield_chains

        def label(info: FunctionInfo) -> str:
            return f"{info.module.name}:{info.qualname}"

        lines = ["// simlint call graph (attributed resolution)"]
        yielders = sorted(
            label(self.functions[i]) for i in chains
        )
        lines.append(f"// may-yield set: {len(yielders)} function(s)")
        for name in yielders:
            lines.append(f"//   may-yield: {name}")
        lines.append("digraph simlint_callgraph {")
        lines.append("  rankdir=LR;")
        lines.append("  node [shape=box, fontsize=9];")
        for i, info in enumerate(self.functions):
            attrs = ""
            if i in chains:
                attrs = ' [style=filled, fillcolor="#ffd0d0"]'
            lines.append(f'  "{label(info)}"{attrs};')
        seen: set[tuple[int, int]] = set()
        for i, info in enumerate(self.functions):
            for site in info.call_sites:
                for callee in self.resolve_site(info, site):
                    j = self._index[id(callee)]
                    if i == j or (i, j) in seen:
                        continue
                    seen.add((i, j))
                    lines.append(
                        f'  "{label(info)}" -> "{label(self.functions[j])}";'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"
