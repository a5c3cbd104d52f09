"""RL007 fixture: handler reachability vs codec registration.

``Ghost`` is sent and dispatched by a *reachable* handler but never
registered — works in the in-process simulator, undecodable over real
bytes (error).  ``OrphanRegistered`` is registered and sent, but its
only dispatch site sits in a private method nothing calls (warning).
"""

from dataclasses import dataclass

from repro.codec import register


@dataclass(frozen=True)
class Ghost:
    round: int


@register
@dataclass(frozen=True)
class OrphanRegistered:
    round: int


class Protocol:
    def on_start(self, ctx):
        ctx.broadcast(Ghost(round=1))
        ctx.broadcast(OrphanRegistered(round=1))

    def on_message(self, ctx, sender, message):
        if isinstance(message, Ghost):
            return "ghost"
        return None

    def _forgotten_handler(self, ctx, message):
        if isinstance(message, OrphanRegistered):
            return "orphan"
        return None
