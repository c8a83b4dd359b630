"""Reporters: text for humans, JSON for tooling."""

from __future__ import annotations

import json

from repro.lint.findings import Finding


def render_text(findings: list[Finding], files_checked: int) -> str:
    """One finding per line, compiler style, plus a summary line."""
    lines = [finding.render() for finding in findings]
    summary = (
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {files_checked} file{'s' if files_checked != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: list[Finding], files_checked: int) -> str:
    payload = {
        "files_checked": files_checked,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "symbol": f.symbol,
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
