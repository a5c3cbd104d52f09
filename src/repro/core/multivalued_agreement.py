"""Multi-valued Byzantine agreement with external validity (Section 3).

Extends binary agreement to values from arbitrary domains.  The paper's
key innovation here is the *external validity* condition: a global
predicate, checkable by every honest party, determines which values are
acceptable, and the protocol may only decide a value satisfying it —
ruling out agreement on values no (honest) party legitimately proposed.

Structure (following the companion paper [7], CKPS):

1. every party *consistent-broadcasts* its proposal; receivers sign
   only proposals satisfying the predicate, so a commit certificate
   exists only for externally valid values;
2. once a quorum of proposal broadcasts completed locally (checked as
   one batch), the parties jointly flip a threshold coin to derive a
   random candidate permutation (defeating adaptive candidate-targeting);
3. candidates are examined in that order: one binary agreement per
   candidate asks "did this proposal commit?"; parties vote 1 iff they
   hold the candidate's commit certificate;
4. the first candidate whose agreement decides 1 wins; parties holding
   its value output it there and then, and re-broadcast it with the
   certificate so everyone else can (binary validity guarantees at
   least one honest holder; consistent broadcast's uniqueness makes the
   held value the only one a certificate can exist for).

Expected number of binary agreements is constant; a wrap-around pass
bounds the worst case (by then every honest sender's broadcast has
completed everywhere, so the first honest candidate decides 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from ..crypto.coin import CoinShare
from .binary_agreement import BinaryAgreement
from .consistent_broadcast import (CbcDelivery, CbcFinal, ConsistentBroadcast, FinalScreen,
                                   cbc_session, verify_commit_certificate)
from .protocol import Context, Protocol, SessionId
from .share_screen import ShareScreen, offer_coin_share, open_coin

__all__ = ["MvbaPermShare", "MvbaValue", "MvbaDecision", "MultiValuedAgreement",
           "mvba_session"]

_MAX_PASSES = 3


@register
@dataclass(frozen=True)
class MvbaPermShare:
    """A share of the candidate-permutation coin."""

    share: CoinShare


@register
@dataclass(frozen=True)
class MvbaValue:
    """A committed proposal forwarded after its agreement decided 1."""

    candidate: int
    delivery: CbcDelivery


@register
@dataclass(frozen=True)
class MvbaDecision:
    """The agreement's output: the winning proposer and its value."""

    proposer: int
    value: Hashable


def mvba_session(tag: object) -> SessionId:
    return ("mvba", tag)


class MultiValuedAgreement(Protocol):
    """One instance per tag; outputs an :class:`MvbaDecision`."""

    def __init__(
        self,
        proposal: Hashable,
        predicate: Callable[[Hashable], bool] | None = None,
    ) -> None:
        self.proposal = proposal
        self.predicate = predicate
        self.deliveries: dict[int, CbcDelivery] = {}
        self.finals = FinalScreen()
        self.perm_coin: ShareScreen[CoinShare] = ShareScreen()
        self.perm_released = False
        # A peer decided, so it held the permutation: the coin's missing
        # shares may never come, and a qualified set is checked by proofs.
        self.perm_settled = False
        self.permutation: list[int] | None = None
        self.cursor = 0  # index into the (wrapped) candidate sequence
        self.current_vote_session: SessionId | None = None
        self.decided = False

    # -- setup: proposal dissemination ----------------------------------------

    def on_start(self, ctx: Context) -> None:
        for sender in range(ctx.n):
            value = self.proposal if sender == ctx.party else None
            ctx.spawn(
                cbc_session(sender, ctx.session),
                ConsistentBroadcast(sender, value, self.predicate),
                on_output=lambda delivery: self._on_delivery(ctx, delivery),
            )

    def refresh_validation(self, ctx: Context) -> None:
        """Re-run the proposal broadcasts' pending validations.

        The external predicate may be *temporarily* false — atomic
        broadcast's availability condition fails until a referenced
        batch arrives — so the spawning layer calls this when new
        context (a fetched batch) could flip it to true.
        """
        if self.decided:
            return
        for sender in range(ctx.n):
            session = cbc_session(sender, ctx.session)
            inst = ctx.instance(session)
            if isinstance(inst, ConsistentBroadcast):
                inst.retry_pending(ctx.at(session))

    def offer_final(self, ctx: Context, sender: int, final: CbcFinal) -> None:
        """Hold a ``FINAL`` broadcast ``ctx.session`` got from ``sender``;
        read all held ones when they could complete the quorum the
        permutation waits for (after it, a vote reads them: _delivery)."""
        held = self.finals.offer(ctx, sender, final)
        waiting = not (self.perm_released or self.decided)
        if held and waiting and ctx.quorum.is_quorum(held.union(self.deliveries)):
            self.finals.read(ctx, held)

    def _on_delivery(self, ctx: Context, delivery: object) -> None:
        if self.decided or not isinstance(delivery, CbcDelivery):
            return
        self.deliveries[delivery.sender] = delivery
        if not self.perm_released and ctx.quorum.is_quorum(self.deliveries):
            self._release_permutation(ctx)

    def _release_permutation(self, ctx: Context) -> None:
        self.perm_released = True
        share = ctx.keys.coin.share_for(self._perm_coin_name(ctx), ctx.rng, ctx.verified)
        ctx.broadcast(MvbaPermShare(share))

    def _perm_coin_name(self, ctx: Context) -> tuple:
        return ("mvba-perm", ctx.session)

    # -- messages -----------------------------------------------------------------

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if self.decided:
            return
        if isinstance(message, MvbaPermShare):
            self._on_perm_share(ctx, sender, message.share)
        elif isinstance(message, MvbaValue):
            self._on_value(ctx, sender, message)

    def _on_perm_share(self, ctx: Context, sender: int, share: CoinShare) -> None:
        name = self._perm_coin_name(ctx)
        self._open_permutation(
            ctx, offer_coin_share(ctx, self.perm_coin, name, sender, share, self.perm_settled)
        )

    def _open_permutation(self, ctx: Context, shares: dict[int, CoinShare] | None) -> None:
        if shares is None:
            return
        if not self.perm_released:
            # Opened before this party's deliveries were a quorum: it
            # releases its share all the same, since it may decide and
            # stop, and a laggard's robust set needs every honest share
            # (docs/PROTOCOLS.md, "Shares": liveness).
            self._release_permutation(ctx)
        bits = ctx.public.coin.combine_many_bits(self._perm_coin_name(ctx), shares, bits=63)
        self.permutation = self._permutation_from_bits(ctx.n, bits)
        self._start_next_vote(ctx)

    @staticmethod
    def _permutation_from_bits(n: int, bits: int) -> list[int]:
        """A Fisher-Yates shuffle driven by the coin bits (common to all)."""
        order = list(range(n))
        state = bits
        for i in range(n - 1, 0, -1):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            j = state % (i + 1)
            order[i], order[j] = order[j], order[i]
        return order

    # -- the candidate loop -----------------------------------------------------

    def _candidate(self, cursor: int) -> int:
        assert self.permutation is not None
        return self.permutation[cursor % len(self.permutation)]

    def _delivery(self, ctx: Context, candidate: int) -> CbcDelivery | None:
        """The candidate's delivery, checking its held certificates first."""
        if candidate not in self.deliveries:
            self.finals.read(ctx, {candidate})
        return self.deliveries.get(candidate)

    def _start_next_vote(self, ctx: Context) -> None:
        if self.decided or self.permutation is None:
            return
        if self.cursor >= _MAX_PASSES * len(self.permutation):
            raise RuntimeError(
                "MVBA exhausted its candidate passes; this is unreachable "
                "when the corruption respects the adversary structure"
            )
        cursor = self.cursor
        candidate = self._candidate(cursor)
        vote = 0 if self._delivery(ctx, candidate) is None else 1
        session: SessionId = ("aba", (ctx.session, cursor))
        self.current_vote_session = session
        ctx.spawn(
            session,
            BinaryAgreement(vote),
            on_output=lambda bit, cur=cursor: self._on_vote_decided(ctx, cur, bit),
        )

    def _on_vote_decided(self, ctx: Context, cursor: int, bit: object) -> None:
        if self.decided or cursor != self.cursor:
            return
        candidate = self._candidate(cursor)
        if bit == 1:
            # Whoever holds the committed value decides on it and
            # re-broadcasts it; binary validity guarantees at least one
            # honest holder exists.  The others decide in _on_value.
            delivery = self._delivery(ctx, candidate)
            if delivery is not None:
                ctx.broadcast(MvbaValue(candidate, delivery))
                self._decide(ctx, delivery)
        else:
            self.cursor += 1
            self._start_next_vote(ctx)

    def _on_value(self, ctx: Context, sender: int, message: MvbaValue) -> None:
        candidate = message.candidate
        delivery = message.delivery
        if not isinstance(delivery, CbcDelivery) or delivery.sender != candidate:
            return
        session = cbc_session(candidate, ctx.session)
        if not verify_commit_certificate(
            ctx.public, session, delivery.value, delivery.certificate, ctx.verified
        ):
            return
        self.deliveries.setdefault(candidate, delivery)
        if self.permutation is None and not self.perm_settled:
            # A peer decided: shares lost on the way to this party (it was
            # down, or not yet admitting the round) would never come.
            self.perm_settled = True
            self._open_permutation(
                ctx, open_coin(ctx, self.perm_coin, self._perm_coin_name(ctx), settled=True)
            )
        # Accept the value as the decision only if its agreement decided 1.
        vote_result = None
        if self.permutation is not None:
            vote_session: SessionId = ("aba", (ctx.session, self.cursor))
            if self._candidate(self.cursor) == candidate:
                vote_result = ctx.result(vote_session)
        if vote_result == 1:
            self._decide(ctx, delivery)

    def _decide(self, ctx: Context, delivery: CbcDelivery) -> None:
        """Output a delivery this party verified (its own broadcast
        instance's, or a checked :class:`MvbaValue`'s)."""
        self.decided = True
        ctx.output(MvbaDecision(proposer=delivery.sender, value=delivery.value))
