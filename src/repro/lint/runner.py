"""The runner: files → project → rules → suppression-filtered findings."""

from __future__ import annotations

# simlint: ok[DET] analyzer wall time is reporting, not simulated cost
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding, sort_findings
from repro.lint.project import Project, build_project, iter_python_files


@dataclass
class LintResult:
    """Everything the report and the exit code need."""

    findings: list[Finding]           # post-suppression, sorted
    files_checked: int
    suppressed: int = 0
    #: findings whose inline suppression matched, for --show-suppressed.
    suppressed_findings: list[Finding] = field(default_factory=list)
    #: rule name -> wall seconds spent in its check() (--timing); the
    #: pseudo-entries "parse" and "callgraph" cover the shared work.
    timings: dict[str, float] = field(default_factory=dict)
    #: the analyzed project, for --dump-graph and debugging.
    project: Project | None = None


def lint_paths(
    paths: tuple[str, ...] | None = None,
    rules: tuple[str, ...] | None = None,
) -> LintResult:
    """Run ``rules`` (default: every rule) over ``paths`` (default: the
    ``repro`` package this linter ships in, wherever it is run from)."""
    from repro.lint.rules import ALL_RULES

    files = iter_python_files(paths or (str(Path(__file__).parents[1]),))

    timings: dict[str, float] = {}
    # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
    t0 = time.perf_counter()
    project, syntax_findings = build_project(files)
    # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
    timings["parse"] = time.perf_counter() - t0

    # build the shared call graph once, up front, so per-rule timings
    # measure the rules and not whoever touches the graph first
    # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
    t0 = time.perf_counter()
    graph = project.callgraph
    graph.yield_chains
    graph.reach_charge_set
    graph.touch_reasons
    # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
    timings["callgraph"] = time.perf_counter() - t0

    selected = (
        list(ALL_RULES) if rules is None
        else [name for name in rules if name in ALL_RULES]
    )
    raw: list[Finding] = list(syntax_findings)
    for name in selected:
        # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
        t0 = time.perf_counter()
        raw.extend(ALL_RULES[name].check(project))
        # simlint: ok[DET] analyzer wall time is reporting, not simulated cost
        timings[name] = time.perf_counter() - t0

    modules_by_path = {module.path: module for module in project.modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        module = modules_by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            kept.append(finding)

    return LintResult(
        findings=sort_findings(kept),
        files_checked=len(files),
        suppressed=len(suppressed),
        suppressed_findings=sort_findings(suppressed),
        timings=timings,
        project=project,
    )
