"""Structured diagnostics emitted by the ``repro lint`` checkers.

Every finding carries enough context to be actionable (file, line,
column, rule id, severity, message, fix hint) and enough identity to be
tracked across commits (a *fingerprint* built from the rule, the
package-relative path and the normalized source line — stable under
unrelated edits that merely shift line numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Severity", "Diagnostic"]


class Severity:
    """Diagnostic severities, ordered from most to least important."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = (ERROR, WARNING)


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one rule at one location."""

    rule: str  # "RL001" .. "RL005"
    path: str  # package-relative, e.g. "core/binary_agreement.py"
    line: int  # 1-based
    col: int  # 0-based, as in the ast module
    message: str
    severity: str = Severity.ERROR
    hint: str = ""
    code: str = field(default="", compare=False)  # stripped source line

    def fingerprint(self) -> tuple[str, str, str]:
        """Identity used for baseline matching (line numbers excluded)."""
        return (self.rule, self.path, self.code)

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.severity}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "code": self.code,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)
