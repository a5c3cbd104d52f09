"""Reliable broadcast — optimized Bracha protocol (Section 3, [5]).

Specification: all honest parties deliver the same set of messages,
including everything broadcast by honest senders; nothing is guaranteed
about order, and a corrupted sender may cause some identical value (or
nothing) to be delivered.

Protocol (per session ``("rbc", sender, tag)``):

1. the sender broadcasts ``SEND(m)``;
2. on the first valid ``SEND``, a party broadcasts ``ECHO(m)``;
3. on a quorum of ``ECHO(m)`` (generalized ``n-t``), or on an
   honest-containing set of ``READY(m)`` (generalized ``t+1``,
   Bracha's amplification step), a party broadcasts ``READY(m)``;
4. on a strong quorum of ``READY(m)`` (generalized ``2t+1``) the party
   delivers ``m``.

The quorum thresholds are the Section 4.2 substitutions, so the same
code runs the classical threshold and the generalized-structure
systems.  An optional validation predicate restricts which payloads a
party is willing to echo (used for external validity higher up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from .protocol import Context, Protocol, SessionId

__all__ = ["RbcSend", "RbcEcho", "RbcReady", "ReliableBroadcast", "rbc_session"]


@register
@dataclass(frozen=True)
class RbcSend:
    value: Hashable


@register
@dataclass(frozen=True)
class RbcEcho:
    value: Hashable


@register
@dataclass(frozen=True)
class RbcReady:
    value: Hashable


def rbc_session(sender: int, tag: object) -> SessionId:
    return ("rbc", sender, tag)


class ReliableBroadcast(Protocol):
    """One instance per (sender, tag); outputs the delivered value."""

    def __init__(
        self,
        sender: int,
        value: Hashable | None = None,
        validate: Callable[[Hashable], bool] | None = None,
    ) -> None:
        self.sender = sender
        self.value = value  # only meaningful on the sender
        self.validate = validate
        self.echoed = False
        self.readied = False
        self.delivered = False
        self.echoes: dict[Hashable, set[int]] = {}
        self.readies: dict[Hashable, set[int]] = {}

    # -- protocol ----------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        if ctx.party == self.sender and self.value is not None:
            ctx.broadcast(RbcSend(self.value))

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, RbcSend):
            self._on_send(ctx, sender, message.value)
        elif isinstance(message, RbcEcho):
            self._on_echo(ctx, sender, message.value)
        elif isinstance(message, RbcReady):
            self._on_ready(ctx, sender, message.value)
        # anything else: Byzantine junk, ignored

    def _acceptable(self, value: Hashable) -> bool:
        if self.validate is None:
            return True
        try:
            return bool(self.validate(value))
        except Exception:
            return False

    def _on_send(self, ctx: Context, sender: int, value: Hashable) -> None:
        if sender != self.sender or self.echoed or not self._acceptable(value):
            return
        self.echoed = True
        ctx.broadcast(RbcEcho(value))

    def _on_echo(self, ctx: Context, sender: int, value: Hashable) -> None:
        if not self._acceptable(value):
            return
        supporters = self.echoes.setdefault(value, set())
        if sender in supporters:
            return
        supporters.add(sender)
        self._maybe_ready(ctx, value)

    def _on_ready(self, ctx: Context, sender: int, value: Hashable) -> None:
        if not self._acceptable(value):
            return
        supporters = self.readies.setdefault(value, set())
        if sender in supporters:
            return
        supporters.add(sender)
        self._maybe_ready(ctx, value)
        self._maybe_deliver(ctx, value)

    # -- rules ----------------------------------------------------------------

    def _maybe_ready(self, ctx: Context, value: Hashable) -> None:
        if self.readied:
            return
        echo_quorum = ctx.quorum.is_quorum(self.echoes.get(value, set()))
        ready_amplify = ctx.quorum.contains_honest(self.readies.get(value, set()))
        if echo_quorum or ready_amplify:
            self.readied = True
            ctx.broadcast(RbcReady(value))
            # Our own READY comes back through the network like all
            # other messages; no local shortcut.

    def _maybe_deliver(self, ctx: Context, value: Hashable) -> None:
        if self.delivered:
            return
        if ctx.quorum.is_strong_quorum(self.readies.get(value, set())):
            self.delivered = True
            ctx.output(value)
