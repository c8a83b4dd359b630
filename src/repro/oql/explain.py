"""``explain`` and ``analyze`` as first-class, governed statements.

Both are ordinary pull-based operators, so every consumer of the engine
— the shell, the multi-client service with its resource governor and
scheduler batch points, a plain :meth:`OQLEngine.execute` — runs them
like any other statement and pays their simulated time.

``explain <query>`` plans the query with the engine's installed planner
(heuristic or cost-based), *runs* it against a fresh pipeline, and emits
text rows: the operator tree it ran (each node's
:attr:`~repro.exec.operators.base.Operator.label`, printed by
:meth:`~repro.exec.operators.base.Operator.explain`), estimated vs.
actual rows and cost, and the full alternatives table with the chosen
candidate marked.  Running the query is deliberate — the paper's whole
point is measured truth, and an explain that stopped at estimates could
not report the estimation error.

``analyze [collections]`` delegates to the statistics collector
(:mod:`repro.opt.collector`), installs the result into the engine's
planner when that planner accepts statistics (the cost-based one does),
and emits one summary row per analyzed extent/association.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.operators.base import Cursor, Operator, PipelineContext
from repro.oql.ast_nodes import AnalyzeStmt, ExplainStmt
from repro.oql.optimizer import SelectionPlan, TreeJoinPlan
from repro.oql.printer import print_query


def chosen_key(plan: SelectionPlan | TreeJoinPlan) -> str:
    """The key of ``plan.alternatives`` the planner chose: every
    estimate a plan carries is one of its alternatives."""
    if isinstance(plan, TreeJoinPlan):
        return plan.algorithm
    for key, estimate in plan.alternatives.items():
        if estimate is plan.estimate:
            break
    return key


def render_explain(
    plan: SelectionPlan | TreeJoinPlan,
    tree: Operator,
    actual_rows: int,
    actual_s: float,
    query_text: str,
) -> list[str]:
    """The text rows an ``explain`` statement emits; ``tree`` is the
    operator tree the engine compiled for ``plan`` and ran."""
    lines = [f"query: {query_text}", f"plan: {plan.description}"]
    lines += ["  " + line for line in tree.explain()]
    lines.append(
        f"rows: estimated {plan.est_rows:.1f}, actual {actual_rows}"
    )
    lines.append(
        f"cost: estimated {plan.estimate.seconds:.6f} s, "
        f"actual {actual_s:.6f} s"
    )
    chosen = chosen_key(plan)
    lines.append("alternatives:")
    width = max(len(key) for key in plan.alternatives)
    for key in sorted(
        plan.alternatives, key=lambda k: plan.alternatives[k].seconds
    ):
        marker = "  <- chosen" if key == chosen else ""
        lines.append(
            f"  {key.ljust(width)}  {plan.alternatives[key].seconds:.6f} s"
            f"{marker}"
        )
    return lines


class _TextRows(Operator):
    """Shared tail: emit the text rows the subclass's ``_open`` left in
    ``_lines``, charging the result price per row like any other root
    operator."""

    _lines: list[str]

    def _rows(self) -> Iterator[str]:
        for line in self._lines:
            self.ctx.charge_result(transactional=False)
            yield line


class ExplainOperator(_TextRows):
    """Runs ``explain <query>``: plan, execute, compare, render."""

    def __init__(self, ctx: PipelineContext, engine, stmt: ExplainStmt):
        super().__init__(ctx)
        self.engine = engine
        self.stmt = stmt

    def _open(self) -> None:
        engine = self.engine
        clock = engine.catalog.db.clock
        plan = engine.optimizer.plan(self.stmt.query)
        start_s = clock.elapsed_s
        inner = engine.compile(plan)
        rows = Cursor(inner.ctx, inner, engine.batch_size).drain()
        self._lines = render_explain(
            plan,
            inner,
            actual_rows=len(rows),
            actual_s=clock.elapsed_s - start_s,
            query_text=print_query(self.stmt.query),
        )


class AnalyzeOperator(_TextRows):
    """Runs ``analyze [collections]``: collect statistics, install them
    into the engine's planner, emit the summary."""

    def __init__(self, ctx: PipelineContext, engine, stmt: AnalyzeStmt):
        super().__init__(ctx)
        self.engine = engine
        self.stmt = stmt

    def _open(self) -> None:
        # Function-scoped import: repro.opt layers *above* repro.oql, so
        # the wiring runs upward here the same way service.checkpoint
        # reaches repro.recovery (the sanctioned LAYER escape hatch).
        from repro.opt import StatsCollector, summarize

        engine = self.engine
        for name in self.stmt.collections:
            engine.catalog.collection(name)    # unknown name -> PlanError
        collector = StatsCollector(engine.catalog)
        stats = collector.collect(self.stmt.collections or None)
        engine.table_stats = stats
        engine.optimizer.install_stats(stats)
        self._lines = summarize(stats)
