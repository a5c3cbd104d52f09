"""RL008 — async interleaving hazards over the effect summaries.

PR 6 made the deployment concurrent: ``pipeline_depth`` atomic-broadcast
rounds in flight, an asyncio TCP transport with per-peer reconnect and
retransmit tasks, open-loop clients.  The model's safety argument
(Section 2's asynchronous authenticated links feeding Section 3's
protocols) survives arbitrary *network* interleavings — but only if an
honest party never corrupts its own state across a suspension point.
This rule makes that mechanical:

**RL008 (stale-read-across-await)** — an async function reads shared
mutable state, suspends (``await`` / ``async for`` / ``async with``),
then writes state derived from the pre-suspension read without
re-validating.  Detected interprocedurally over
:class:`~repro.analysis.effects.EffectAnalysis`: the read may happen
inside a sync helper whose return value carries the cell, and the write
inside a sync helper that receives the stale value as an argument.  A
fresh read of the cell in an ``if``/``while``/``assert`` test after the
suspension (the ``if cached is not self.x: return`` re-check idiom)
re-validates it.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..effects import EffectAnalysis, format_cell
from ..project import ProjectGraph
from ..source import SourceFile
from . import Rule

__all__ = ["StaleReadAcrossAwaitRule"]


class StaleReadAcrossAwaitRule(Rule):
    rule_id = "RL008"
    severity = Severity.ERROR
    summary = "shared state read before an await is written back after it"
    hint = (
        "re-read (or re-validate with an if/assert on the cell) after the "
        "await before writing, or baseline with the argument that makes "
        "the interleaving safe"
    )
    scope = ("core/", "smr/", "net/")
    project_wide = True

    def check_project(self, sources: list[SourceFile]) -> list[Diagnostic]:
        graph = ProjectGraph.build(sources)
        analysis = EffectAnalysis.run(graph)
        by_relpath = {source.relpath: source for source in sources}
        diagnostics: list[Diagnostic] = []
        for hazard in analysis.stale_write_hazards():
            source = by_relpath.get(hazard.relpath)
            if source is None or not self.applies_to(hazard.relpath):
                continue
            cell = format_cell(hazard.cell)
            if hazard.kind == "alias":
                message = (
                    f"object obtained from {cell} at line {hazard.read_line} "
                    f"is mutated after the suspension at line "
                    f"{hazard.suspend_line}; the container may have been "
                    "replaced mid-await, so this writes to an orphaned object"
                )
            elif hazard.kind == "helper":
                message = (
                    f"{cell} read at line {hazard.read_line} is written back "
                    f"via {hazard.detail or 'a helper'}() after the "
                    f"suspension at line {hazard.suspend_line} without "
                    "re-validation"
                )
            else:
                message = (
                    f"{cell} read at line {hazard.read_line} is written back "
                    f"after the suspension at line {hazard.suspend_line} "
                    "without re-validation (lost-update interleaving)"
                )
            diagnostics.append(
                self.diagnostic(
                    source, hazard.write_line, hazard.write_col, message
                )
            )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics
