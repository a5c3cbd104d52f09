"""The ``repro lint`` engine: discovery, checking, baseline, output.

Pipeline::

    paths -> discover *.py -> parse
          -> run scoped rules (per-file, then project-wide)
          -> drop inline `# repro: noqa-RLxxx` suppressions
          -> split against the baseline -> report (text / JSON / SARIF)

The engine is import-light and dependency-free: it runs on the ``ast``
module only, so CI can run it everywhere the package itself runs.

Exit semantics are severity-aware: ``error`` findings fail the lint,
``warning`` findings are reported but do not (a ``noqa`` marker naming
an unknown rule, RL000; see docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import Baseline, BaselineEntry
from .diagnostics import Diagnostic, Severity
from .rules import Rule, rules_by_id
from .source import LintSyntaxError, SourceFile

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "LintReport",
    "discover_files",
    "format_json",
    "lint_sources",
    "run_lint",
    "write_baseline",
]

DEFAULT_BASELINE_NAME = "lint-baseline.json"

@dataclass
class LintReport:
    """Everything a caller (CLI, guard test) needs to act on."""

    diagnostics: list[Diagnostic]  # new findings (not suppressed, not baselined)
    baselined: list[Diagnostic]
    suppressed: int
    stale_baseline: list[BaselineEntry]
    files_scanned: int
    errors: list[str] = field(default_factory=list)  # unparseable files etc.
    timings: dict[str, float] = field(default_factory=dict)  # rule id -> seconds
    # (rule id, relpath) pairs this run checked; --write-baseline keeps
    # every entry outside them.
    checked: set[tuple[str, str]] = field(default_factory=set)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.WARNING)

    @property
    def ok(self) -> bool:
        """Warnings inform; only errors (and unreadable files) fail."""
        return self.error_count == 0 and not self.errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "baselined": len(self.baselined),
            "errors_count": self.error_count,
            "warnings_count": self.warning_count,
            "stale_baseline": [entry.to_dict() for entry in self.stale_baseline],
            "errors": self.errors,
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
            "timings": {rule: round(secs, 4) for rule, secs in sorted(self.timings.items())},
        }

    def format_text(self, *, verbose: bool = False) -> str:
        lines = [diag.format_text() for diag in self.diagnostics]
        for error in self.errors:
            lines.append(f"error: {error}")
        if verbose and self.baselined:
            lines.append(f"note: {len(self.baselined)} baselined finding(s) not shown")
        if self.stale_baseline:
            lines.append(
                f"note: {len(self.stale_baseline)} stale baseline entr"
                f"{'y' if len(self.stale_baseline) == 1 else 'ies'} — the violation "
                "is gone; delete the entry to ratchet"
            )
            for entry in self.stale_baseline:
                lines.append(f"  stale: {entry.rule} {entry.path}: {entry.code}")
        if verbose and self.timings:
            for rule, secs in sorted(self.timings.items()):
                lines.append(f"timing: {rule} {secs * 1000:.1f}ms")
        summary = (
            f"{len(self.diagnostics)} finding(s) "
            f"({self.error_count} error(s), {self.warning_count} warning(s)), "
            f"{len(self.baselined)} baselined, "
            f"{self.suppressed} suppressed, {self.files_scanned} file(s) scanned"
        )
        lines.append(summary)
        return "\n".join(lines)


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.is_file():
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


def lint_sources(
    sources: list[SourceFile],
    rules: list[Rule] | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Run rules over already-parsed sources (the testable core)."""
    active = rules if rules is not None else rules_by_id(None)
    # Each finding travels with the source whose noqa markers govern it.
    found: list[tuple[SourceFile | None, Diagnostic]] = []
    timings: dict[str, float] = {}
    for source in sources:
        for rule in active:
            if rule.project_wide or not rule.applies_to(source.relpath):
                continue
            start = time.perf_counter()
            found.extend((source, diag) for diag in rule.check(source))
            timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + (
                time.perf_counter() - start
            )
    by_relpath = {source.relpath: source for source in sources}
    for rule in active:
        if not rule.project_wide:
            continue
        start = time.perf_counter()
        found.extend(
            (by_relpath.get(diag.path), diag) for diag in rule.check_project(sources)
        )
        timings[rule.rule_id] = time.perf_counter() - start

    kept = [diag for source in sources for diag in source.unknown_noqa_diagnostics()]
    suppressed = 0
    for source, diag in found:
        if source is not None and source.is_suppressed(diag.line, diag.rule):
            suppressed += 1
        else:
            kept.append(diag)
    kept.sort(key=Diagnostic.sort_key)

    if baseline is None:
        new, matched, stale = kept, [], []
    else:
        new, matched, stale = baseline.split(kept)
    return LintReport(
        diagnostics=new,
        baselined=matched,
        suppressed=suppressed,
        stale_baseline=stale,
        files_scanned=len(sources),
        timings=timings,
        checked={
            (rule.rule_id, source.relpath)
            for rule in active
            for source in sources
            if rule.applies_to(source.relpath)
        },
    )


def run_lint(
    paths: list[Path],
    *,
    rule_ids: list[str] | None = None,
    baseline_path: Path | None = None,
) -> LintReport:
    """Discover, parse and lint ``paths``; the CLI entry point's core.

    A file that cannot be read or parsed is reported in the report's
    ``errors`` (which fail the lint) and the rest are still checked.
    """
    files = discover_files(paths)
    baseline = None
    if baseline_path is not None and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    sources: list[SourceFile] = []
    errors: list[str] = []
    for file in files:
        try:
            sources.append(SourceFile.from_path(file))
        except LintSyntaxError as exc:
            errors.append(str(exc))
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{file}: {exc}")
    report = lint_sources(sources, rules_by_id(rule_ids), baseline)
    report.errors = errors
    return report


def write_baseline(report: LintReport, path: Path) -> Baseline:
    """Snapshot the report's findings (new + already baselined) to ``path``.

    Entries already in the file that the run did not check — their rule
    was not run, or their file was not scanned or did not parse — are
    kept as they are.  Hand-written ``reason`` fields of the re-found
    entries are preserved; only genuinely new entries get the
    add-a-justification placeholder.
    """
    existing = Baseline.load(path).entries if path.exists() else []
    reasons = {entry.fingerprint(): entry.reason for entry in reversed(existing) if entry.reason}
    baseline = Baseline.from_diagnostics(
        report.diagnostics + report.baselined,
        reason="baselined by --write-baseline; add a specific justification",
    )
    for entry in baseline.entries:
        entry.reason = reasons.get(entry.fingerprint(), entry.reason)
    baseline.entries += [
        entry for entry in existing if (entry.rule, entry.path) not in report.checked
    ]
    baseline.entries.sort(key=lambda entry: (entry.path, entry.line, entry.rule))
    baseline.write(path)
    return baseline


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2)
