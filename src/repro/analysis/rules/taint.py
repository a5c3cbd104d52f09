"""RL006/RL007 — whole-program taint and handler-reachability rules.

RL006 enforces the paper's cross-cutting safety invariant (Sections 3.3
and 4): every value a replica *acts on* — state-machine operations,
checkpoint/journal contents, anything it threshold-signs, membership of
a quorum-counted set — arrives from a potentially Byzantine peer and
must first pass a verified gate.  It runs the
:mod:`repro.analysis.dataflow` engine over the call graph built by
:mod:`repro.analysis.project` with the catalogue below and reports
every ungated source → sink path, rendered as the chain of calls the
taint travelled.

RL007 closes the loop on the wire registry (the whole-program upgrade
of RL004): a message type that is registered and sent must have a
dispatch site *reachable* from a protocol entry point, and no reachable
handler may dispatch on a project message type that was never
registered — such a message can exist in the in-process simulator but
can never arrive over real bytes (``codec.py`` reads only what is
registered).
"""

from __future__ import annotations

import ast

from ..dataflow import TaintAnalysis, TaintCatalog, TaintPath
from ..diagnostics import Diagnostic, Severity
from ..project import ProjectGraph, walk_function_body
from ..source import SourceFile
from . import Rule
from .messages import _registered_names, _sent_names

__all__ = ["TaintFlowRule", "HandlerReachabilityRule", "DEFAULT_CATALOG"]

# The RL002 verified-gate catalogue plus the quorum predicates and the
# constant-time digest comparison used on the checkpoint path.  Of a
# ShareScreen only ``qualified_shares`` is here (``offer_coin_share``
# gates by calling it): ``offer`` holds a share unverified.
_SANITIZERS = frozenset(
    {
        "verify",
        "verify_share",
        "verify_shares",
        "verify_proof",
        "verify_batch",
        "verify_dleq",
        "verify_dleq_batch",
        "verify_dleq_shares",
        "combine",
        "check",
        "qualified_shares",
        "is_quorum",
        "is_strong_quorum",
        "contains_honest",
        "compare_digest",
    }
)

_QUORUM_PREDICATES = frozenset({"is_quorum", "is_strong_quorum", "contains_honest"})

DEFAULT_CATALOG = TaintCatalog(
    source_calls=frozenset({"loads"}),
    source_methods=frozenset({"on_message"}),
    source_param_names=frozenset({"message", "payload", "msg", "data", "raw"}),
    sanitizers=_SANITIZERS,
    sink_calls={
        "apply": "state-machine apply",
        "sign_share": "outbound threshold signing",
        "write_checkpoint": "checkpoint write",
    },
    sink_write_receivers=frozenset({"journal"}),
    source_call_paths=frozenset({"net/wire.py", "codec.py"}),
    source_receivers=frozenset({"wire", "codec"}),
)


def _called_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def _self_fields(expr: ast.expr, cls: str) -> set[tuple[str, str]]:
    found: set[tuple[str, str]] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.add((cls, node.attr))
    return found


def _quorum_tracked_fields(graph: ProjectGraph) -> set[tuple[str, str]]:
    """``(class, attr)`` fields whose contents feed a quorum predicate.

    Inserting an unverified sender/share into one of these corrupts the
    quorum count itself (Section 3.3), so RL006 treats ungated tainted
    stores into them as sinks.  Includes a one-level backward slice:
    ``supporters = set(self.votes); ctx.quorum.is_quorum(supporters)``
    still marks ``votes``.
    """
    fields: set[tuple[str, str]] = set()
    for fn in graph.functions.values():
        if fn.cls is None or isinstance(fn.node, ast.Lambda):
            continue
        local_fields: dict[str, set[tuple[str, str]]] = {}
        for node in walk_function_body(fn.node):
            if isinstance(node, ast.Assign):
                value_fields = _self_fields(node.value, fn.cls)
                if value_fields:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_fields.setdefault(target.id, set()).update(
                                value_fields
                            )
        for node in walk_function_body(fn.node):
            if isinstance(node, ast.Call) and _called_name(node) in _QUORUM_PREDICATES:
                for arg in node.args:
                    fields |= _self_fields(arg, fn.cls)
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            fields |= local_fields.get(sub.id, set())
    return fields


def _render_chain(finding: TaintPath) -> str:
    hops = list(finding.chain)
    if not hops:
        return "tainted input"
    if len(hops) > 4:  # keep the diagnostic line readable
        hops = [hops[0], f"... {len(hops) - 2} more hops ...", hops[-1]]
    return "; then ".join(hops)


class TaintFlowRule(Rule):
    rule_id = "RL006"
    severity = Severity.ERROR
    summary = "unverified Byzantine input reaches a protected sink"
    hint = (
        "gate the flow with a verify*/combine/quorum check before the sink, "
        "or baseline it with the protocol argument that makes it safe"
    )
    scope = ("core/", "smr/", "net/")
    project_wide = True

    catalog: TaintCatalog = DEFAULT_CATALOG

    def check_project(self, sources: list[SourceFile]) -> list[Diagnostic]:
        graph = ProjectGraph.build(sources)
        analysis = TaintAnalysis.run(graph, self.catalog)
        findings = analysis.sink_findings()
        findings.extend(analysis.store_findings(_quorum_tracked_fields(graph)))

        by_relpath = {source.relpath: source for source in sources}
        diagnostics: list[Diagnostic] = []
        seen: set[tuple[str, int, int, str]] = set()
        for finding in findings:
            fn = graph.functions[finding.hit.qualname]
            source = by_relpath.get(fn.relpath)
            if source is None or not self.applies_to(fn.relpath):
                continue
            key = (fn.relpath, finding.hit.line, finding.hit.col, finding.hit.kind)
            if key in seen:
                continue
            seen.add(key)
            diagnostics.append(
                self.diagnostic(
                    source,
                    finding.hit.line,
                    finding.hit.col,
                    f"unverified network input reaches {finding.hit.kind} "
                    f"({finding.hit.sink}): {_render_chain(finding)}",
                )
            )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics


class HandlerReachabilityRule(Rule):
    rule_id = "RL007"
    severity = Severity.ERROR
    summary = "wire-registered message without reachable handler, or vice versa"
    hint = (
        "decorate the dispatched type with @register, or make the handler "
        "reachable from an on_message/on_start entry point"
    )
    scope = ("core/", "smr/", "net/")
    project_wide = True

    # Entry points external code drives: protocol lifecycle hooks plus
    # every public (non-underscore) function or method.
    _ENTRY_NAMES = frozenset({"on_message", "on_start"})

    def check_project(self, sources: list[SourceFile]) -> list[Diagnostic]:
        graph = ProjectGraph.build(sources)
        registered = _registered_names(sources)
        sent = _sent_names(sources)
        by_relpath = {source.relpath: source for source in sources}
        project_classes = set(graph.classes)

        roots = [
            qualname
            for qualname, fn in graph.functions.items()
            if fn.name in self._ENTRY_NAMES
            or (fn.name and not fn.name.startswith("_"))
        ]
        reachable = graph.reachable_from(roots)

        # name -> dispatch sites: (qualname, relpath, line, col)
        dispatch_sites: dict[str, list[tuple[str, str, int, int]]] = {}
        for qualname, fn in graph.functions.items():
            if isinstance(fn.node, ast.Lambda):
                continue
            for node in walk_function_body(fn.node):
                names: list[tuple[str, int, int]] = []
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    spec = node.args[1]
                    candidates = (
                        spec.elts if isinstance(spec, (ast.Tuple, ast.List)) else [spec]
                    )
                    for cand in candidates:
                        if isinstance(cand, ast.Name):
                            names.append((cand.id, node.lineno, node.col_offset))
                        elif isinstance(cand, ast.Attribute):
                            names.append((cand.attr, node.lineno, node.col_offset))
                elif isinstance(node, ast.MatchClass):
                    cls = node.cls
                    if isinstance(cls, ast.Name):
                        names.append((cls.id, node.lineno, node.col_offset))
                    elif isinstance(cls, ast.Attribute):
                        names.append((cls.attr, node.lineno, node.col_offset))
                for name, line, col in names:
                    dispatch_sites.setdefault(name, []).append(
                        (qualname, fn.relpath, line, col)
                    )

        diagnostics: list[Diagnostic] = []

        # A registered+sent message whose every dispatch site sits in
        # dead code can never actually be handled (warning: the code may
        # be exercised by tests only).
        for name in sorted(registered & sent):
            sites = dispatch_sites.get(name, [])
            if not sites:
                continue  # RL004 already reports "no handler at all"
            if any(qualname in reachable for qualname, _, _, _ in sites):
                continue
            qualname, relpath, line, col = sites[0]
            source = by_relpath.get(relpath)
            if source is None or not self.applies_to(relpath):
                continue
            diagnostics.append(
                self.diagnostic(
                    source,
                    line,
                    col,
                    f"every handler for registered message {name} is unreachable "
                    "from protocol entry points (on_message/on_start/public API)",
                    severity=Severity.WARNING,
                )
            )

        # A reachable handler dispatching on a project message type that
        # is sent but never registered: works in the in-process
        # simulator, silently undecodable over the TCP transport.
        for name in sorted(set(dispatch_sites) & project_classes):
            if name in registered or name not in sent:
                continue
            for qualname, relpath, line, col in dispatch_sites[name]:
                if qualname not in reachable:
                    continue
                source = by_relpath.get(relpath)
                if source is None or not self.applies_to(relpath):
                    continue
                diagnostics.append(
                    self.diagnostic(
                        source,
                        line,
                        col,
                        f"reachable handler dispatches on {name}, which is sent "
                        "but never registered with the codec (@register)",
                    )
                )

        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics
