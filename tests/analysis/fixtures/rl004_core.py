"""RL004 fixture: message dataclasses (linted with relpath core/rl004_core.py).

``Registered`` is sent, registered and handled (clean).
``SentUnregistered`` is sent and handled but not decorated ``@register``.
``RegisteredUnhandled`` is registered but nothing dispatches on it.
``PlainRecord`` is a dataclass that is never sent nor registered: not a
message, so the rule ignores it entirely.
"""

from dataclasses import dataclass

from repro.codec import register


@register
@dataclass(frozen=True)
class Registered:
    round: int


@dataclass(frozen=True)
class SentUnregistered:
    round: int


@register
@dataclass(frozen=True)
class RegisteredUnhandled:
    round: int


@dataclass(frozen=True)
class PlainRecord:
    label: str


class Protocol:
    def on_start(self, ctx):
        ctx.broadcast(Registered(round=1))
        ctx.send(0, SentUnregistered(round=1))

    def on_message(self, ctx, sender, message):
        if isinstance(message, Registered):
            return "registered"
        if isinstance(message, SentUnregistered):
            return "sent-unregistered"
        return None
