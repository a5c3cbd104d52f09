"""Checker registry for ``repro lint``.

Each rule is an object with

* ``rule_id`` / ``severity`` / ``summary`` — identification;
* ``scope`` — package-relative path prefixes it applies to (empty means
  everywhere) and ``exclude`` prefixes it never applies to;
* either ``check(source) -> list[Diagnostic]`` for per-file rules or
  ``check_project(sources) -> list[Diagnostic]`` for whole-project
  rules (RL004 needs the wire registry *and* every definition site).

Rules protect the cross-cutting invariants of Cachin's architecture
(DSN 2001); see docs/STATIC_ANALYSIS.md for the rule-by-rule rationale
and the paper sections each one traces to.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..source import SourceFile

__all__ = ["Rule", "ALL_RULES", "rules_by_id"]


class Rule:
    """Base class: scoping plus the per-file/project check split."""

    rule_id: str = ""
    severity: str = Severity.ERROR
    summary: str = ""
    hint: str = ""
    # Package-relative prefixes ("core/", "smr/", exact files like
    # "net/wire.py").  Empty scope means the whole package.
    scope: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    project_wide: bool = False

    def applies_to(self, relpath: str) -> bool:
        if any(relpath == ex or relpath.startswith(ex) for ex in self.exclude):
            return False
        if not self.scope:
            return True
        return any(relpath == sc or relpath.startswith(sc) for sc in self.scope)

    def check(self, source: SourceFile) -> list[Diagnostic]:
        raise NotImplementedError

    def check_project(self, sources: list[SourceFile]) -> list[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self,
        source: SourceFile,
        line: int,
        col: int,
        message: str,
        hint: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.rule_id,
            path=source.relpath,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            hint=self.hint if hint is None else hint,
            code=source.line_text(line),
        )


def _build_registry() -> dict[str, Rule]:
    from .async_hygiene import AsyncHygieneRule
    from .concurrency import StaleReadAcrossAwaitRule
    from .determinism import DeterminismRule
    from .messages import MessageRegistrationRule
    from .quorum import QuorumArithmeticRule
    from .results import DiscardedResultRule

    rules = [
        QuorumArithmeticRule(),
        DiscardedResultRule(),
        DeterminismRule(),
        MessageRegistrationRule(),
        AsyncHygieneRule(),
        StaleReadAcrossAwaitRule(),
    ]
    return {rule.rule_id: rule for rule in rules}


ALL_RULES: dict[str, Rule] = _build_registry()


def rules_by_id(ids: list[str] | None = None) -> list[Rule]:
    """Resolve rule ids (case-insensitive); None means every rule."""
    if ids is None:
        return list(ALL_RULES.values())
    out = []
    for raw in ids:
        rule = ALL_RULES.get(raw.strip().upper())
        if rule is None:
            raise KeyError(f"unknown rule {raw!r} (known: {', '.join(sorted(ALL_RULES))})")
        out.append(rule)
    return out
