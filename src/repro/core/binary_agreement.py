"""Randomized binary Byzantine agreement with a threshold coin.

This is the agreement primitive of Section 3: optimal resilience
(``n > 3t`` / Q^3), complete asynchrony, and termination in an
*expected constant number of rounds* powered by the threshold
coin-tossing scheme of Cachin-Kursawe-Shoup [8].  Following CKS, the
protocol proceeds in rounds of two voting phases whose outcomes feed a
cryptographic common coin; the implementation uses the value-binding
vote structure (BVAL/AUX/CONF) so that validity is enforced by quorum
evidence rather than per-message signatures — CKS themselves note the
scheme remains correct when threshold signatures are replaced by sets
of messages, and the binding gate is what extends cleanly to the
generalized quorums of Section 4.2 (see DESIGN.md).

Properties (tested under adversarial schedules and corruptions):

* **Validity** — if all honest parties propose ``v``, every honest
  party decides ``v``; more generally a decided value was proposed by
  at least one honest party (values without honest support never pass
  the binding gate).
* **Agreement** — no two honest parties decide differently.
* **Termination** — every honest party decides after an expected
  constant number of rounds, for any scheduler; a Bracha-style DONE
  gadget then lets instances *halt* (stop sending) safely.

Round structure (session ``("aba", tag)``, round ``r >= 2``; round 1
is steps 1-3 and 5 with the constant coin ``c = 1``, see below):

1. ``BVAL(r, b)`` — broadcast own estimate; re-broadcast any value
   supported by an honest-containing set (generalized ``t+1``); a
   value supported by a strong quorum (``2t+1``) becomes *bound*
   (enters ``bin_values``).
2. ``AUX(r, b)`` — vote for one bound value; wait until a quorum
   (``n-t``) of votes for bound values arrived.
3. ``CONF(r, V)`` — confirm the set of values seen; wait for a quorum
   of confirmations covered by ``bin_values``.
4. Release a share of coin ``(tag, r)``; combine a qualified set of
   valid shares into the common coin ``c``.
5. If the confirmed union is a single ``{b}``: adopt ``b``, and decide
   if ``b == c``.  Otherwise adopt ``c``.  Repeat.

The vote is *biased toward 1*, as CKS00 run it and as CKPS01's
validated agreement needs it: round 1 opens no coin, its ``c`` is the
constant 1, so a vote that is unanimous-1 from the start — the case
whenever every party already holds the candidate's certificate —
decides after CONF.  Agreement never rested on the coin being
unpredictable, only on its being common: if a party decides ``b`` in
round ``r``, any other party's CONF quorum meets its in an honest
``{b}``, so that party's union contains ``b`` and it adopts ``b`` by
union or by ``c = b``.  Validity comes from the binding gate, and
termination pays at most one coin-free round the adversary may spoil
before the real coins of rounds ``r >= 2`` start.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import register
from ..crypto.coin import CoinShare
from .protocol import Context, Protocol, SessionId
from .share_screen import ShareScreen, offer_coin_share

__all__ = [
    "AbaBval",
    "AbaAux",
    "AbaConf",
    "AbaCoinShare",
    "AbaDone",
    "BinaryAgreement",
    "aba_session",
]

# Byzantine parties may claim arbitrary round numbers; anything this far
# beyond the local round is discarded to bound state (honest parties
# never diverge remotely this much).
_ROUND_HORIZON = 64

# Round 1's coin (see the module docstring): known to all, shared by none.
_FIRST_COIN = 1


@register
@dataclass(frozen=True)
class AbaBval:
    round: int
    value: int


@register
@dataclass(frozen=True)
class AbaAux:
    round: int
    value: int


@register
@dataclass(frozen=True)
class AbaConf:
    round: int
    values: frozenset[int]


@register
@dataclass(frozen=True)
class AbaCoinShare:
    round: int
    share: CoinShare


@register
@dataclass(frozen=True)
class AbaDone:
    value: int


def aba_session(tag: object) -> SessionId:
    return ("aba", tag)


def _is_bit(value: int) -> bool:
    """A received vote is 0 or 1 (admission made it exactly an ``int``:
    ``True`` compares equal to 1 but encodes apart)."""
    return value in (0, 1)


class _RoundState:
    """All mutable per-round bookkeeping."""

    __slots__ = (
        "bval_sent",
        "bval_from",
        "bin_values",
        "aux_sent",
        "aux_from",
        "conf_sent",
        "conf_from",
        "coin_released",
        "coin",
        "coin_value",
        "finished",
    )

    def __init__(self) -> None:
        self.bval_sent: set[int] = set()
        self.bval_from: dict[int, set[int]] = {0: set(), 1: set()}
        self.bin_values: set[int] = set()
        self.aux_sent = False
        self.aux_from: dict[int, int] = {}
        self.conf_sent = False
        self.conf_from: dict[int, frozenset] = {}
        self.coin_released = False
        self.coin: ShareScreen[CoinShare] = ShareScreen()
        self.coin_value: int | None = None
        self.finished = False


class BinaryAgreement(Protocol):
    """One agreement instance; outputs the decided bit (0 or 1)."""

    def __init__(self, proposal: int) -> None:
        if proposal not in (0, 1):
            raise ValueError("proposal must be 0 or 1")
        self.proposal = proposal
        self.round = 0
        self.estimate = proposal
        self.decided: int | None = None
        self.halted = False
        self.done_sent = False
        self.done_from: dict[int, set[int]] = {0: set(), 1: set()}
        self.rounds: dict[int, _RoundState] = {}

    # -- lifecycle -----------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._enter_round(ctx, 1)

    def _state(self, r: int) -> _RoundState:
        state = self.rounds.get(r)
        if state is None:
            state = _RoundState()
            if r == 1:
                state.coin_released = True  # there is no share to release
                state.coin_value = _FIRST_COIN
            self.rounds[r] = state
        return state

    def _enter_round(self, ctx: Context, r: int) -> None:
        if self.halted:
            return
        self.round = r
        state = self._state(r)
        if self.estimate not in state.bval_sent:
            state.bval_sent.add(self.estimate)
            ctx.broadcast(AbaBval(r, self.estimate))
        # Messages for this round may have arrived early; re-evaluate.
        self._progress(ctx, r)

    # -- dispatch ---------------------------------------------------------------

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if self.halted:
            return
        if isinstance(message, AbaDone):
            self._on_done(ctx, sender, message.value)
            return
        r = getattr(message, "round", 0)
        if not 1 <= r <= self.round + _ROUND_HORIZON:
            return
        if r == 1 and isinstance(message, AbaCoinShare):
            return  # round 1 has no coin to open: nothing to hold or check
        state = self._state(r)
        if isinstance(message, AbaBval) and _is_bit(message.value):
            state.bval_from[message.value].add(sender)
        elif isinstance(message, AbaAux) and _is_bit(message.value):
            state.aux_from.setdefault(sender, message.value)
        elif isinstance(message, AbaConf):
            values = message.values
            if values and all(map(_is_bit, values)):
                state.conf_from.setdefault(sender, values)
        elif isinstance(message, AbaCoinShare):
            self._on_coin_share(ctx, sender, r, message.share)
        else:
            return
        if r <= self.round:
            self._progress(ctx, r)

    # -- round machinery -----------------------------------------------------------

    def _progress(self, ctx: Context, r: int) -> None:
        """Run every enabled rule for round ``r`` until quiescence."""
        if r != self.round or self.halted:
            return
        state = self._state(r)
        changed = True
        while changed and not self.halted and r == self.round:
            changed = False
            changed |= self._rule_bval(ctx, r, state)
            changed |= self._rule_aux(ctx, r, state)
            changed |= self._rule_conf(ctx, r, state)
            changed |= self._rule_coin(ctx, r, state)
            changed |= self._rule_advance(ctx, r, state)

    def _rule_bval(self, ctx: Context, r: int, state: _RoundState) -> bool:
        changed = False
        for b in (0, 1):
            supporters = state.bval_from[b]
            if b not in state.bval_sent and ctx.quorum.contains_honest(supporters):
                state.bval_sent.add(b)
                ctx.broadcast(AbaBval(r, b))
                changed = True
            if b not in state.bin_values and ctx.quorum.is_strong_quorum(supporters):
                state.bin_values.add(b)
                changed = True
        return changed

    def _rule_aux(self, ctx: Context, r: int, state: _RoundState) -> bool:
        if state.aux_sent or not state.bin_values:
            return False
        state.aux_sent = True
        # Vote for one bound value (smallest, deterministically).
        ctx.broadcast(AbaAux(r, min(state.bin_values)))
        return True

    def _rule_conf(self, ctx: Context, r: int, state: _RoundState) -> bool:
        if state.conf_sent:
            return False
        backed = {p for p, v in state.aux_from.items() if v in state.bin_values}
        if not ctx.quorum.is_quorum(backed):
            return False
        state.conf_sent = True
        seen = frozenset(state.aux_from[p] for p in backed)
        ctx.broadcast(AbaConf(r, seen))
        return True

    def _rule_coin(self, ctx: Context, r: int, state: _RoundState) -> bool:
        if state.coin_released or self._confirmed(ctx, state) is None:
            return False
        state.coin_released = True
        share = ctx.keys.coin.share_for(self._coin_name(ctx, r), ctx.rng, ctx.verified)
        ctx.broadcast(AbaCoinShare(r, share))
        return True

    def _confirmed(self, ctx: Context, state: _RoundState) -> set[int] | None:
        """The union of the CONF sets covered by ``bin_values``, once
        their senders are a quorum; ``None`` until then."""
        backed = {
            p for p, vals in state.conf_from.items() if vals <= state.bin_values
        }
        if not ctx.quorum.is_quorum(backed):
            return None
        union: set[int] = set()
        for p in backed:
            union |= state.conf_from[p]
        return union

    def _coin_name(self, ctx: Context, r: int) -> tuple:
        return ("aba-coin", ctx.session, r)

    def _on_coin_share(self, ctx: Context, sender: int, r: int, share: CoinShare) -> None:
        state = self._state(r)
        name = self._coin_name(ctx, r)
        shares = offer_coin_share(ctx, state.coin, name, sender, share)
        if shares is not None:
            state.coin_value = ctx.public.coin.combine(name, shares)
            ctx.trace.bump("aba.coin_flips")

    def _rule_advance(self, ctx: Context, r: int, state: _RoundState) -> bool:
        if state.finished or state.coin_value is None:
            return False
        union = self._confirmed(ctx, state)
        if not union:
            return False
        state.finished = True
        coin = state.coin_value
        if union == {coin}:
            self.estimate = coin
            self._decide(ctx, coin)
        elif len(union) == 1:
            self.estimate = next(iter(union))
        else:
            self.estimate = coin
        ctx.trace.bump("aba.rounds")
        if not self.halted:
            self._enter_round(ctx, r + 1)
        return True

    # -- decision & termination gadget ------------------------------------------

    def _decide(self, ctx: Context, value: int) -> None:
        if self.decided is None:
            self.decided = value
            ctx.output(value)
        if not self.done_sent:
            self.done_sent = True
            ctx.broadcast(AbaDone(value))

    def _on_done(self, ctx: Context, sender: int, value: int) -> None:
        if not _is_bit(value):
            return
        self.done_from[value].add(sender)
        supporters = self.done_from[value]
        # An honest-containing set vouches for the decision: adopt it.
        if ctx.quorum.contains_honest(supporters):
            if self.decided is None:
                self.decided = value
                ctx.output(value)
            if not self.done_sent:
                self.done_sent = True
                ctx.broadcast(AbaDone(value))
        # A strong quorum of DONEs means every honest party will adopt
        # via the rule above from the already-sent messages: safe to halt.
        if ctx.quorum.is_strong_quorum(supporters):
            self.halted = True
