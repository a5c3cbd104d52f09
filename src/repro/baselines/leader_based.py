"""Deterministic leader-based consensus in the style of CL99 (PBFT).

Figure 1 row "CL99": a deterministic three-phase protocol that is very
fast when the network is friendly, maintains safety under all
circumstances, but relies on *timeouts* for liveness — "it requires no
explicit timeout values, but assumes that message transmission delays
do not grow faster than some predetermined function".  Since a
Byzantine network adversary controls all delays, it can starve every
leader just long enough to force an endless sequence of view changes:
liveness is lost while safety holds.  Experiment E1 demonstrates
exactly this and contrasts it with the randomized stack, which decides
under the same schedule.

This is a single-slot consensus (one decision per instance), which is
all the comparison experiment needs:

* view ``v`` has leader ``v mod n``;
* leader broadcasts ``PREPREPARE(v, value)``;
* replicas send ``PREPARE(v, value)``; a strong quorum (2t+1) of
  prepares forms a *prepared certificate*;
* replicas send ``COMMIT(v, value)``; a strong quorum of commits
  decides.
* Timeouts are modeled in message-count time: every delivered message
  ticks a watchdog; a replica that makes no progress within
  ``timeout`` ticks broadcasts ``VIEWCHANGE(v+1, prepared?)``; a
  quorum of view-change messages starts the next view, whose leader
  must re-propose any reported prepared value (the PBFT safety rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..codec import register
from ..core.protocol import Context, Protocol, SessionId

__all__ = [
    "PrePrepare",
    "Prepare",
    "Commit",
    "ViewChange",
    "NewView",
    "LeaderConsensus",
    "leader_session",
]


@register
@dataclass(frozen=True)
class PrePrepare:
    view: int
    value: Hashable


@register
@dataclass(frozen=True)
class Prepare:
    view: int
    value: Hashable


@register
@dataclass(frozen=True)
class Commit:
    view: int
    value: Hashable


@register
@dataclass(frozen=True)
class ViewChange:
    new_view: int
    prepared_view: int  # -1 if nothing prepared
    prepared_value: Hashable | None


@register
@dataclass(frozen=True)
class NewView:
    view: int
    value: Hashable


def leader_session(tag: object) -> SessionId:
    return ("leader-consensus", tag)


class LeaderConsensus(Protocol):
    """One deterministic consensus instance; outputs the decided value."""

    def __init__(self, value: Hashable, timeout: int = 40) -> None:
        self.my_value = value
        self.timeout = timeout
        self.view = 0
        self.decided: Hashable | None = None
        self.accepted: dict[int, Hashable] = {}  # view -> pre-prepared value
        self.prepares: dict[tuple[int, Hashable], set[int]] = {}
        self.commits: dict[tuple[int, Hashable], set[int]] = {}
        self.prepared: tuple[int, Hashable] | None = None
        self.view_changes: dict[int, dict[int, ViewChange]] = {}
        self.committed_sent: set[int] = set()
        self.idle_ticks = 0
        self.view_changes_seen = 0
        self._view_changes_sent: set[int] = set()

    # -- helpers ---------------------------------------------------------------

    def leader_of(self, ctx: Context, view: int) -> int:
        return view % ctx.n

    def current_leader(self, ctx: Context) -> int:
        return self.leader_of(ctx, self.view)

    def _progress(self) -> None:
        self.idle_ticks = 0

    # -- lifecycle ------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        if ctx.party == self.current_leader(ctx):
            ctx.broadcast(PrePrepare(0, self.my_value))

    def tick(self, ctx: Context) -> None:
        """Message-count timeout: the harness calls this on every step a
        replica observes; silence past the timeout triggers a view change."""
        if self.decided is not None:
            return
        self.idle_ticks += 1
        if self.idle_ticks >= self.timeout:
            self._progress()
            self._start_view_change(ctx, self.view + 1)

    def _start_view_change(self, ctx: Context, new_view: int) -> None:
        if new_view <= self.view or new_view in self._view_changes_sent:
            return
        self._view_changes_sent.add(new_view)
        self.idle_ticks = 0  # the watchdog restarts for the next view
        prepared_view, prepared_value = (-1, None)
        if self.prepared is not None:
            prepared_view, prepared_value = self.prepared
        ctx.broadcast(ViewChange(new_view, prepared_view, prepared_value))

    # -- messages -----------------------------------------------------------------

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if self.decided is not None:
            return
        if isinstance(message, PrePrepare):
            self._on_preprepare(ctx, sender, message)
        elif isinstance(message, Prepare):
            self._collect(ctx, sender, self.prepares, message.view, message.value)
            self._maybe_prepared(ctx, message.view, message.value)
        elif isinstance(message, Commit):
            self._collect(ctx, sender, self.commits, message.view, message.value)
            self._maybe_decide(ctx, message.view, message.value)
        elif isinstance(message, ViewChange):
            self._on_view_change(ctx, sender, message)
        elif isinstance(message, NewView):
            self._on_new_view(ctx, sender, message)

    def _on_preprepare(self, ctx: Context, sender: int, message: PrePrepare) -> None:
        if message.view != self.view or sender != self.leader_of(ctx, message.view):
            return
        if message.view in self.accepted:
            return
        self.accepted[message.view] = message.value
        self._progress()
        ctx.broadcast(Prepare(message.view, message.value))

    def _collect(
        self,
        ctx: Context,
        sender: int,
        store: dict[tuple[int, Hashable], set[int]],
        view: int,
        value: Hashable,
    ) -> None:
        store.setdefault((view, value), set()).add(sender)

    def _maybe_prepared(self, ctx: Context, view: int, value: Hashable) -> None:
        if view != self.view or self.accepted.get(view) != value:
            return
        if view in self.committed_sent:
            return
        if ctx.quorum.is_strong_quorum(self.prepares.get((view, value), set())):
            self.committed_sent.add(view)
            if self.prepared is None or self.prepared[0] < view:
                self.prepared = (view, value)
            self._progress()
            ctx.broadcast(Commit(view, value))

    def _maybe_decide(self, ctx: Context, view: int, value: Hashable) -> None:
        if ctx.quorum.is_strong_quorum(self.commits.get((view, value), set())):
            self.decided = value
            ctx.output(value)

    def _on_view_change(self, ctx: Context, sender: int, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        bucket = self.view_changes.setdefault(message.new_view, {})
        bucket.setdefault(sender, message)
        # Join the view change once an honest-containing set asked for it.
        if ctx.quorum.contains_honest(bucket) and message.new_view > self.view:
            self._start_view_change(ctx, message.new_view)
        if not ctx.quorum.is_strong_quorum(bucket):
            return
        # Enter the new view.
        self.view = message.new_view
        self.view_changes_seen += 1
        self._progress()
        if ctx.party == self.leader_of(ctx, self.view):
            # PBFT safety rule: re-propose the highest reported prepared
            # value, otherwise the leader's own.
            best_view, best_value = -1, self.my_value
            for vc in bucket.values():
                if vc.prepared_view > best_view and vc.prepared_value is not None:
                    best_view, best_value = vc.prepared_view, vc.prepared_value
            ctx.broadcast(PrePrepare(self.view, best_value))
