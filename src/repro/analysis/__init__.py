"""``repro.analysis`` — AST-based protocol-invariant linter.

Cachin's architecture (DSN 2001) is safe only while a handful of
cross-cutting invariants hold everywhere in the codebase:

* quorum logic flows through the :class:`~repro.adversary.quorums.QuorumSystem`
  abstraction (RL001, Section 4.2);
* every signature/certificate verification gates progress (RL002,
  Sections 3.3-3.5);
* the protocol core is deterministic so adversarial schedules replay
  (RL003, Section 2);
* every sent message dataclass is wire-registered and handled (RL004);
* async handlers neither drop coroutines nor mutate shared state after
  an ``await`` without re-checking the round guard (RL005);
* shared state read before a suspension is not written back after it
  without re-validation (RL008, over the call graph in
  :mod:`repro.analysis.project` and the effect summaries in
  :mod:`repro.analysis.effects`).

Run it with ``python -m repro lint`` (see docs/STATIC_ANALYSIS.md), or
programmatically::

    from repro.analysis import run_lint
    report = run_lint([Path("src/repro")], baseline_path=Path("lint-baseline.json"))
    assert report.ok, report.format_text()
"""

from .baseline import Baseline, BaselineEntry, BaselineError
from .diagnostics import Diagnostic, Severity
from .engine import (
    DEFAULT_BASELINE_NAME,
    LintReport,
    discover_files,
    format_json,
    lint_sources,
    run_lint,
    write_baseline,
)
from .project import ProjectGraph
from .rules import ALL_RULES, Rule, rules_by_id
from .sarif import format_sarif
from .source import LintSyntaxError, SourceFile

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "Diagnostic",
    "LintReport",
    "LintSyntaxError",
    "ProjectGraph",
    "Rule",
    "Severity",
    "SourceFile",
    "discover_files",
    "format_json",
    "format_sarif",
    "lint_sources",
    "run_lint",
    "rules_by_id",
    "write_baseline",
]
