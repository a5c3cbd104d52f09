"""Violation baseline: track legacy findings, ratchet them down.

The baseline file (JSON, committed at the repository root as
``lint-baseline.json``) records findings that predate the linter or are
intentional, each with a justifying ``reason``.  A finding matches a
baseline entry by *fingerprint* — ``(rule, path, normalized source
line)`` — so entries survive unrelated edits that shift line numbers,
but a *new* identical violation elsewhere (different line content or
file) is still reported.  Each entry absorbs at most ``count``
occurrences (default 1), so duplicating a baselined line is reported.

Ratcheting: entries that no longer match anything are *stale*; the
guard test fails on stale entries, forcing the baseline to shrink as
violations are fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic

__all__ = ["BaselineEntry", "Baseline", "BaselineError"]

_VERSION = 1


class BaselineError(ValueError):
    """Malformed baseline file."""


@dataclass
class BaselineEntry:
    rule: str
    path: str
    code: str
    reason: str = ""
    line: int = 0  # informational only; matching ignores it
    count: int = 1

    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.code)

    def to_dict(self) -> dict:
        out = {"rule": self.rule, "path": self.path, "line": self.line, "code": self.code}
        if self.reason:
            out["reason"] = self.reason
        if self.count != 1:
            out["count"] = self.count
        return out


@dataclass
class Baseline:
    entries: list[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != _VERSION:
            raise BaselineError(f"unsupported baseline format in {path}")
        entries = []
        for raw in data.get("entries", []):
            try:
                entries.append(
                    BaselineEntry(
                        rule=raw["rule"],
                        path=raw["path"],
                        code=raw["code"],
                        reason=raw.get("reason", ""),
                        line=int(raw.get("line", 0)),
                        count=int(raw.get("count", 1)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise BaselineError(f"malformed baseline entry {raw!r}") from exc
        return cls(entries=entries)

    @classmethod
    def from_diagnostics(cls, diagnostics: list[Diagnostic], reason: str = "") -> "Baseline":
        counts: dict[tuple[str, str, str], BaselineEntry] = {}
        for diag in sorted(diagnostics, key=Diagnostic.sort_key):
            key = diag.fingerprint()
            if key in counts:
                counts[key].count += 1
            else:
                counts[key] = BaselineEntry(
                    rule=diag.rule,
                    path=diag.path,
                    code=diag.code,
                    reason=reason,
                    line=diag.line,
                )
        return cls(entries=list(counts.values()))

    def write(self, path: Path) -> None:
        payload = {
            "version": _VERSION,
            "comment": (
                "Known findings of `python -m repro lint`, each with a justifying "
                "reason. Ratchet: fix a finding, then delete its entry; the guard "
                "test fails on stale entries. See docs/STATIC_ANALYSIS.md."
            ),
            "entries": [entry.to_dict() for entry in self.entries],
        }
        path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    def split(
        self, diagnostics: list[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic], list[BaselineEntry]]:
        """Partition into (new, baselined) and report stale entries."""
        budget: dict[tuple[str, str, str], int] = {}
        initial: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            budget[entry.fingerprint()] = budget.get(entry.fingerprint(), 0) + entry.count
        initial.update(budget)
        new: list[Diagnostic] = []
        matched: list[Diagnostic] = []
        for diag in diagnostics:
            key = diag.fingerprint()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                matched.append(diag)
            else:
                new.append(diag)
        # An entry is stale when its fingerprint's budget was never touched
        # at all; a partially-consumed multi-count entry is not stale.
        stale = [
            entry
            for entry in self.entries
            if entry.count > 0
            and budget.get(entry.fingerprint(), 0) == initial.get(entry.fingerprint(), 0)
        ]
        return new, matched, stale
