"""RL004 — message dataclasses missing codec registration or a handler.

The codec (``codec.py``) can only read dataclasses that were
registered with ``@register`` at their definition — an unregistered
message type works in the object-passing simulator and then fails the
moment the stack runs over real bytes.  Symmetrically, a message that
no protocol dispatches on (no ``isinstance`` check / ``match`` case
anywhere) is dead weight that suggests a handler was forgotten.

This is a *project-wide* rule: it needs every definition, send and
dispatch site.

A dataclass defined in ``core/`` counts as a *message* when it is sent
— constructed inside a ``ctx.broadcast(...)`` or ``ctx.send(...)`` call
anywhere in the scanned tree — or when it is already registered with
the codec.  For each message:

* sent but not registered      -> "not registered with the wire codec";
* sent/registered but never matched by ``isinstance``/``match``
  anywhere                      -> "no handler dispatches on it".
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..project import decorator_names
from ..source import SourceFile
from . import Rule

__all__ = ["MessageRegistrationRule"]

_SEND_METHODS = {"broadcast", "send"}


def _registered_names(sources: list[SourceFile]) -> set[str]:
    """Class names registered with the codec: those defined under a
    ``@register`` decorator, anywhere."""
    return {
        node.name
        for source in sources
        for node in ast.walk(source.tree)
        if isinstance(node, ast.ClassDef) and "register" in decorator_names(node)
    }


def _sent_names(sources: list[SourceFile]) -> set[str]:
    """Class names constructed inside a broadcast(...)/send(...) call."""
    sent: set[str] = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_METHODS
            ):
                continue
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                        sent.add(sub.func.id)
    return sent


def _dispatched_names(sources: list[SourceFile]) -> set[str]:
    """Class names some handler dispatches on (isinstance or match)."""
    dispatched: set[str] = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                spec = node.args[1]
                candidates = spec.elts if isinstance(spec, (ast.Tuple, ast.List)) else [spec]
                for cand in candidates:
                    if isinstance(cand, ast.Name):
                        dispatched.add(cand.id)
                    elif isinstance(cand, ast.Attribute):
                        dispatched.add(cand.attr)
            elif isinstance(node, ast.MatchClass):
                cls = node.cls
                if isinstance(cls, ast.Name):
                    dispatched.add(cls.id)
                elif isinstance(cls, ast.Attribute):
                    dispatched.add(cls.attr)
    return dispatched


class MessageRegistrationRule(Rule):
    rule_id = "RL004"
    summary = "message dataclass unregistered with codec or unhandled"
    hint = (
        "decorate the class with @register (repro.codec) and dispatch on "
        "it with isinstance()/match in a handler"
    )
    scope = ("core/",)
    project_wide = True

    def check_project(self, sources: list[SourceFile]) -> list[Diagnostic]:
        registered = _registered_names(sources)
        sent = _sent_names(sources)
        dispatched = _dispatched_names(sources)

        diagnostics: list[Diagnostic] = []
        for source in sources:
            if not self.applies_to(source.relpath):
                continue
            for node in source.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                name = node.name
                is_message = name in sent or name in registered
                if not is_message or "dataclass" not in decorator_names(node):
                    continue
                if name in sent and name not in registered:
                    diagnostics.append(
                        self.diagnostic(
                            source,
                            node.lineno,
                            node.col_offset,
                            f"message dataclass {name} is sent but never registered "
                            "with the codec (@register)",
                        )
                    )
                if name not in dispatched:
                    diagnostics.append(
                        self.diagnostic(
                            source,
                            node.lineno,
                            node.col_offset,
                            f"message dataclass {name} has no handler: nothing "
                            "dispatches on it with isinstance()/match",
                        )
                    )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics
