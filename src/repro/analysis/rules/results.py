"""RL002 — discarded ``verify()`` / ``combine()`` results.

Every certificate, signature share and threshold-combination check in
the stack returns a value that must *gate* protocol progress (deliver
only on a verified certificate, count only verified shares — Sections
3.3-3.5).  A bare statement ``key.verify(statement, sig)`` runs the
check and throws the answer away: the classic SecureSMART-style seam
where a BFT implementation silently stops being Byzantine-tolerant.

Flagged: expression statements whose value is a call to a function or
method named ``verify``, ``verify_share``, ``verify_shares``,
``verify_proof``, ``verify_batch``, ``verify_dleq``,
``verify_dleq_batch``, ``verify_dleq_shares``, ``consistent``,
``combine``, ``check``, ``qualified_shares``, ``open_shares`` or
``offer_coin_share`` inside ``core/``, ``crypto/`` and ``smr/``.  The batch entry points
return the set of valid shares (or the batch verdict) and are
verified-gates exactly like their per-share counterparts: dropping
their result silently un-gates a whole quorum at once — and a memo
argument changes nothing: a share the party's own seeded memo admits
is admitted by the *returned* set, nowhere else.  The same holds one
level up, at :class:`~repro.core.share_screen.ShareScreen`: offering a
share, or holding it pending, gates nothing — only the set
``qualified_shares`` (or ``open_shares``, ``offer_coin_share``)
returns does; and a robust set's ``consistent`` verdict gates it as the
proofs' would.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..source import SourceFile
from . import Rule

__all__ = ["DiscardedResultRule"]

_CHECKED_NAMES = {
    "verify",
    "verify_share",
    "verify_shares",
    "verify_proof",
    "verify_batch",
    "verify_dleq",
    "verify_dleq_batch",
    "verify_dleq_shares",
    "consistent",
    "combine",
    "check",
    "qualified_shares",
    "open_shares",
    "offer_coin_share",
}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class DiscardedResultRule(Rule):
    rule_id = "RL002"
    summary = "discarded verify()/combine() return value"
    hint = (
        "use the result to gate progress (e.g. `if not key.verify(...): return`) "
        "or assign it; a verification whose answer is ignored protects nothing"
    )
    scope = ("core/", "crypto/", "smr/")

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diagnostics = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            name = _called_name(node.value)
            if name in _CHECKED_NAMES:
                diagnostics.append(
                    self.diagnostic(
                        source,
                        node.lineno,
                        node.col_offset,
                        f"return value of {name}() is discarded; verification must "
                        "gate protocol progress",
                    )
                )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics
