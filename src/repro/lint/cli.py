"""Command-line front end: ``python -m repro lint`` / ``python -m repro.lint``.

Exit codes: 0 clean, 1 findings, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.lint.config import LintConfig, load_config
from repro.lint.report import render_json, render_text
from repro.lint.runner import lint_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Mountable on a standalone parser or a ``repro`` subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.simlint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule subset, e.g. DET,LAYER (default: all configured)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml; run with built-in defaults",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by inline ok[...] comments",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print per-rule wall time (plus parse/callgraph) to stderr",
    )
    parser.add_argument(
        "--dump-graph",
        metavar="PATH",
        help="write the call graph (DOT, may-yield set highlighted) to PATH",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Shared implementation for both entry points."""
    try:
        config: LintConfig = (
            LintConfig() if args.no_config else load_config(".")
        )
        if args.rules:
            from repro.lint.rules import ALL_RULES

            wanted = tuple(
                rule.strip().upper() for rule in args.rules.split(",") if rule.strip()
            )
            unknown = [rule for rule in wanted if rule not in ALL_RULES]
            if unknown:
                print(
                    f"simlint: unknown rule(s): {', '.join(unknown)}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            config = replace(config, select=wanted)
    except (OSError, ValueError, TypeError) as exc:
        print(f"simlint: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # A gate that checked nothing must not pass: a renamed package
    # would otherwise turn CI's path-scoped runs green for good.
    try:
        result = lint_paths(tuple(args.paths) or None, config)
    except FileNotFoundError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not result.files_checked:
        print("simlint: no Python files to check", file=sys.stderr)
        return EXIT_USAGE

    if getattr(args, "dump_graph", None):
        assert result.project is not None
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.write(result.project.callgraph.to_dot())
        print(f"simlint: call graph written to {args.dump_graph}", file=sys.stderr)
    if getattr(args, "timing", False):
        total = sum(result.timings.values())
        print("simlint: timing", file=sys.stderr)
        for name, spent in result.timings.items():
            print(f"  {name:10s} {spent * 1000.0:8.1f} ms", file=sys.stderr)
        print(f"  {'total':10s} {total * 1000.0:8.1f} ms", file=sys.stderr)

    findings = result.findings
    render = render_json if args.format == "json" else render_text
    print(render(findings, result.files_checked), end="")
    if args.format == "text":
        print()
        if args.show_suppressed and result.suppressed_findings:
            print(f"-- {result.suppressed} suppressed --")
            for finding in result.suppressed_findings:
                print(f"{finding.render()}  [suppressed]")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="AST invariant linter for the repro codebase "
        "(determinism, cost charging, layering, pairing, exceptions, "
        "atomicity, protocols, handle escape)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
