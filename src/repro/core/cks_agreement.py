"""Binary Byzantine agreement in the explicit CKS style ([8]).

This is a second, independently usable implementation of the agreement
primitive, structured exactly as the protocol of Cachin, Kursawe and
Shoup: rounds of *pre-votes* and *main-votes* whose messages carry
explicit, transferable **justifications** built from signature
certificates, plus the threshold coin:

* a round-1 pre-vote is justified by the party's proposal (free);
* a later pre-vote for ``b`` is justified *hard* — by a certificate of
  a quorum of round ``r-1`` pre-vote shares for ``b`` — or *by the
  coin* — a certificate of a quorum of round ``r-1`` abstain main-vote
  shares, together with the coin value;
* a main-vote is ``b`` when a quorum of justified pre-votes agreed on
  ``b`` (justification: the combined pre-vote certificate), and
  ``abstain`` when conflicting justified pre-votes were seen
  (justification: one justified pre-vote for each value);
* a quorum of main-votes for ``b`` decides ``b``; otherwise the round
  closes with the threshold coin and the next round's pre-vote is
  justified as above.  As in CKS the vote is biased toward 1: round 1
  opens no coin, its value is the constant 1 (decisions never read the
  coin, so only the all-abstain pre-vote of round 2 sees the bias).

Where CKS combine shares into constant-size threshold signatures, this
implementation uses quorum certificates (signature sets) — CKS note
the protocol is unaffected; the size difference is measured by
benchmark E12/E13.  The default agreement in
:mod:`repro.core.binary_agreement` achieves the same interface with a
value-binding gate instead of per-message justifications (stronger
validity with free round-1 votes, and a natural fit for generalized
quorums); both coexist so the benchmarks can compare them.

Guarantees (tested): agreement, expected-constant-round termination
under any scheduler, and unanimity-validity against crash/silent
corruptions.  Against actively injecting Byzantine parties the decided
value is always *justifiably pre-voted*; see DESIGN.md on the round-1
justification caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import register
from ..crypto.coin import CoinShare
from ..crypto.schnorr import Signature
from ..crypto.threshold_sig import QuorumCertificate
from .protocol import Context, Protocol, SessionId
from .share_screen import ShareScreen, offer_coin_share

__all__ = ["CksPreVote", "CksMainVote", "CksCoinShare", "CksDone",
           "CksBinaryAgreement", "cks_session"]

_ROUND_HORIZON = 64

ABSTAIN = "abstain"


@register
@dataclass(frozen=True)
class CksPreVote:
    round: int
    value: int
    justification: object  # None | ("hard", cert) | ("coin", cert)
    share: Signature  # signature share on (prevote, round, value)


@register
@dataclass(frozen=True)
class CksMainVote:
    round: int
    value: object  # 0 | 1 | "abstain"
    justification: object  # ("cert", cert) | ("conflict", prevote0, prevote1)
    share: Signature  # signature share on (mainvote, round, value)


@register
@dataclass(frozen=True)
class CksCoinShare:
    round: int
    share: CoinShare


@register
@dataclass(frozen=True)
class CksDone:
    value: int


def cks_session(tag: object) -> SessionId:
    return ("cks-aba", tag)


def _prevote_statement(session: SessionId, r: int, value: int) -> tuple:
    return ("cks-prevote", session, r, value)


def _mainvote_statement(session: SessionId, r: int, value: object) -> tuple:
    return ("cks-mainvote", session, r, value)


class _Round:
    __slots__ = (
        "prevotes",
        "prevote_sent",
        "mainvotes",
        "mainvote_sent",
        "coin_released",
        "coin",
        "coin_value",
        "closed",
        "prevote_certs",
        "abstain_cert",
    )

    def __init__(self) -> None:
        self.prevotes: dict[int, CksPreVote] = {}
        self.prevote_sent = False
        self.mainvotes: dict[int, CksMainVote] = {}
        self.mainvote_sent = False
        self.coin_released = False
        self.coin: ShareScreen[CoinShare] = ShareScreen()
        self.coin_value: int | None = None
        self.closed = False
        self.prevote_certs: dict[int, QuorumCertificate] = {}
        self.abstain_cert: QuorumCertificate | None = None


class CksBinaryAgreement(Protocol):
    """One agreement instance; outputs the decided bit."""

    def __init__(self, proposal: int) -> None:
        if proposal not in (0, 1):
            raise ValueError("proposal must be 0 or 1")
        self.proposal = proposal
        self.round = 0
        self.decided: int | None = None
        self.halted = False
        self.done_sent = False
        self.done_from: dict[int, set[int]] = {0: set(), 1: set()}
        self.rounds: dict[int, _Round] = {}

    # -- lifecycle ------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.round = 1
        self._send_prevote(ctx, 1, self.proposal, None)

    def _state(self, r: int) -> _Round:
        state = self.rounds.get(r)
        if state is None:
            state = _Round()
            if r == 1:
                state.coin_released = True  # there is no share to release
                state.coin_value = 1
            self.rounds[r] = state
        return state

    # -- sending --------------------------------------------------------------

    def _send_prevote(self, ctx: Context, r: int, value: int, justification) -> None:
        state = self._state(r)
        if state.prevote_sent:
            return
        state.prevote_sent = True
        share = ctx.keys.cert_quorum.sign_share(
            _prevote_statement(ctx.session, r, value), ctx.rng, ctx.verified
        )
        ctx.broadcast(CksPreVote(r, value, justification, share))

    def _send_mainvote(self, ctx: Context, r: int, value, justification) -> None:
        state = self._state(r)
        if state.mainvote_sent:
            return
        state.mainvote_sent = True
        share = ctx.keys.cert_quorum.sign_share(
            _mainvote_statement(ctx.session, r, value), ctx.rng, ctx.verified
        )
        ctx.broadcast(CksMainVote(r, value, justification, share))

    # -- dispatch ----------------------------------------------------------------

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if self.halted:
            return
        if isinstance(message, CksDone):
            self._on_done(ctx, sender, message.value)
            return
        r = getattr(message, "round", None)
        if not isinstance(r, int) or not 1 <= r <= self.round + _ROUND_HORIZON:
            return
        if isinstance(message, CksPreVote):
            self._on_prevote(ctx, sender, r, message)
        elif isinstance(message, CksMainVote):
            self._on_mainvote(ctx, sender, r, message)
        elif isinstance(message, CksCoinShare) and r > 1:
            self._on_coin_share(ctx, sender, r, message.share)
        if r == self.round:
            self._progress(ctx, r)

    # -- justification checking ----------------------------------------------------

    def _prevote_justified(self, ctx: Context, r: int, message: CksPreVote) -> bool:
        if message.value not in (0, 1):
            return False
        if r == 1:
            return message.justification is None  # any initial value
        just = message.justification
        if not (isinstance(just, tuple) and len(just) == 2):
            return False
        kind, cert = just
        if kind == "hard":
            statement = _prevote_statement(ctx.session, r - 1, message.value)
            return isinstance(cert, QuorumCertificate) and ctx.public.cert_quorum.verify(
                statement, cert, ctx.verified
            )
        if kind == "coin":
            statement = _mainvote_statement(ctx.session, r - 1, ABSTAIN)
            if not (
                isinstance(cert, QuorumCertificate)
                and ctx.public.cert_quorum.verify(statement, cert, ctx.verified)
            ):
                return False
            # The coin value itself is checked locally once known.
            prev = self._state(r - 1)
            return prev.coin_value is None or prev.coin_value == message.value
        return False

    def _mainvote_justified(self, ctx: Context, r: int, message: CksMainVote) -> bool:
        just = message.justification
        if message.value in (0, 1):
            if not (isinstance(just, tuple) and len(just) == 2 and just[0] == "cert"):
                return False
            cert = just[1]
            statement = _prevote_statement(ctx.session, r, message.value)
            return isinstance(cert, QuorumCertificate) and ctx.public.cert_quorum.verify(
                statement, cert, ctx.verified
            )
        if message.value == ABSTAIN:
            if not (isinstance(just, tuple) and len(just) == 3 and just[0] == "conflict"):
                return False
            zero, one = just[1], just[2]
            if not (isinstance(zero, CksPreVote) and isinstance(one, CksPreVote)):
                return False
            if zero.value != 0 or one.value != 1:
                return False
            if zero.round != r or one.round != r:
                return False
            return self._prevote_justified(ctx, r, zero) and self._prevote_justified(
                ctx, r, one
            )
        return False

    # -- receipt -------------------------------------------------------------------

    def _on_prevote(self, ctx: Context, sender: int, r: int, message: CksPreVote) -> None:
        state = self._state(r)
        if sender in state.prevotes:
            return
        if not self._prevote_justified(ctx, r, message):
            return
        statement = _prevote_statement(ctx.session, r, message.value)
        if not ctx.public.cert_quorum.verify_share(
            statement, (sender, message.share), ctx.verified
        ):
            return
        state.prevotes[sender] = message

    def _on_mainvote(self, ctx: Context, sender: int, r: int, message: CksMainVote) -> None:
        state = self._state(r)
        if sender in state.mainvotes:
            return
        if not self._mainvote_justified(ctx, r, message):
            return
        statement = _mainvote_statement(ctx.session, r, message.value)
        if not ctx.public.cert_quorum.verify_share(
            statement, (sender, message.share), ctx.verified
        ):
            return
        state.mainvotes[sender] = message

    def _on_coin_share(self, ctx: Context, sender: int, r: int, share: CoinShare) -> None:
        state = self._state(r)
        name = ("cks-coin", ctx.session, r)
        shares = offer_coin_share(ctx, state.coin, name, sender, share)
        if shares is not None:
            state.coin_value = ctx.public.coin.combine(name, shares)
            ctx.trace.bump("cks.coin_flips")

    # -- round machinery ----------------------------------------------------------

    def _progress(self, ctx: Context, r: int) -> None:
        if r != self.round or self.halted:
            return
        state = self._state(r)
        self._maybe_mainvote(ctx, r, state)
        self._maybe_close(ctx, r, state)

    def _maybe_mainvote(self, ctx: Context, r: int, state: _Round) -> None:
        if state.mainvote_sent or not ctx.quorum.is_quorum(state.prevotes):
            return
        values = {pv.value for pv in state.prevotes.values()}
        if values == {0} or values == {1}:
            value = values.pop()
            statement = _prevote_statement(ctx.session, r, value)
            shares = {
                p: pv.share for p, pv in state.prevotes.items() if pv.value == value
            }
            cert = ctx.public.cert_quorum.combine(statement, shares, ctx.verified)
            state.prevote_certs[value] = cert
            self._send_mainvote(ctx, r, value, ("cert", cert))
        else:
            # Pick the witnesses by lowest party id so the conflict
            # justification is a function of the prevote *set*, not of
            # the adversarial arrival order.
            zero = next(state.prevotes[p] for p in sorted(state.prevotes)
                        if state.prevotes[p].value == 0)
            one = next(state.prevotes[p] for p in sorted(state.prevotes)
                       if state.prevotes[p].value == 1)
            self._send_mainvote(ctx, r, ABSTAIN, ("conflict", zero, one))

    def _maybe_close(self, ctx: Context, r: int, state: _Round) -> None:
        if state.closed or not ctx.quorum.is_quorum(state.mainvotes):
            return
        # Every party releases its coin share once the main-vote quorum
        # is in (CKS release the round coin unconditionally).
        if not state.coin_released:
            state.coin_released = True
            name = ("cks-coin", ctx.session, r)
            coin_share = ctx.keys.coin.share_for(name, ctx.rng, ctx.verified)
            ctx.broadcast(CksCoinShare(r, coin_share))
        # Decide when a full quorum main-voted the same bit.
        for value in (0, 1):
            backers = {
                p for p, mv in state.mainvotes.items() if mv.value == value
            }
            if ctx.quorum.is_quorum(backers):
                state.closed = True
                self._decide(ctx, value)
                self._advance(ctx, r, value, hard=True)
                return
        values = {mv.value for mv in state.mainvotes.values()}
        hard_value = next((v for v in (0, 1) if v in values), None)
        if hard_value is not None:
            state.closed = True
            self._advance(ctx, r, hard_value, hard=True)
            return
        # All abstain: wait for the coin.
        if state.coin_value is None:
            return
        state.closed = True
        statement = _mainvote_statement(ctx.session, r, ABSTAIN)
        shares = {
            p: mv.share for p, mv in state.mainvotes.items() if mv.value == ABSTAIN
        }
        state.abstain_cert = ctx.public.cert_quorum.combine(
            statement, shares, ctx.verified
        )
        self._advance(ctx, r, state.coin_value, hard=False)

    def _advance(self, ctx: Context, r: int, value: int, hard: bool) -> None:
        if self.halted:
            return
        state = self._state(r)
        if hard:
            cert = state.prevote_certs.get(value)
            if cert is None:
                # Adopt the certificate carried by a main-vote for value,
                # from the lowest-numbered voter for determinism.
                for p in sorted(state.mainvotes):
                    mv = state.mainvotes[p]
                    if mv.value == value:
                        cert = mv.justification[1]
                        break
            justification = ("hard", cert)
        else:
            justification = ("coin", state.abstain_cert)
        self.round = r + 1
        self._send_prevote(ctx, r + 1, value, justification)
        self._progress(ctx, r + 1)

    # -- decision / halting ----------------------------------------------------------

    def _decide(self, ctx: Context, value: int) -> None:
        if self.decided is None:
            self.decided = value
            ctx.output(value)
        if not self.done_sent:
            self.done_sent = True
            ctx.broadcast(CksDone(value))

    def _on_done(self, ctx: Context, sender: int, value: int) -> None:
        if value not in (0, 1):
            return
        self.done_from[value].add(sender)
        supporters = self.done_from[value]
        if ctx.quorum.contains_honest(supporters):
            if self.decided is None:
                self.decided = value
                ctx.output(value)
            if not self.done_sent:
                self.done_sent = True
                ctx.broadcast(CksDone(value))
        if ctx.quorum.is_strong_quorum(supporters):
            self.halted = True
