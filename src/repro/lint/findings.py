"""What a rule reports: one :class:`Finding` per violation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str      # rule name, e.g. "DET"
    path: str      # path as given to the runner (repo-relative in CI)
    line: int      # 1-based line of the offending statement
    col: int       # 0-based column
    message: str   # human explanation, specific to the site
    symbol: str = ""  # enclosing function/import

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable report order: by file, then line, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
