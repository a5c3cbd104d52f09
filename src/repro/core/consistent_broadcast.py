"""Consistent broadcast — echo broadcast with signature certificates.

The paper's variation of reliable broadcast (Section 3, cf. Reiter
[31]): it guarantees *uniqueness* of the delivered message — no two
honest parties deliver different values for the same (sender, tag) —
but relaxes totality: a party may never deliver and only learn of the
message's existence by other means (and can then ask for it, which is
exactly what multi-valued agreement does with the certificate).

Protocol (session ``("cbc", sender, tag)``):

1. sender broadcasts ``SEND(m)``;
2. every party that accepts ``m`` (first value, optional validation)
   signs ``(session, m)`` and returns the signature share to the
   sender;
3. once the signers form a quorum (generalized ``n-t``), the sender
   combines the shares into a *commit certificate* and broadcasts
   ``FINAL(m, certificate)``;
4. a valid ``FINAL`` delivers ``(m, certificate)``.

Uniqueness holds because two quorums intersect in an honest party, and
honest parties sign at most one value per session.  The certificate is
transferable third-party evidence — any party can hand it to any other
to prove the broadcast completed, which the agreement layer exploits.

A ``FINAL`` is checked when its verdict is needed (:class:`FinalScreen`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from ..crypto.dealer import PublicKeys
from ..crypto.schnorr import Signature, VerifiedMemo
from ..crypto.threshold_sig import QuorumCertificate
from .protocol import Context, Protocol, SessionId

__all__ = [
    "CbcSend",
    "CbcEchoSignature",
    "CbcFinal",
    "CbcDelivery",
    "ConsistentBroadcast",
    "cbc_session",
    "verify_commit_certificate",
]


@register
@dataclass(frozen=True)
class CbcSend:
    value: Hashable


@register
@dataclass(frozen=True)
class CbcEchoSignature:
    signature: Signature


@register
@dataclass(frozen=True)
class CbcFinal:
    value: Hashable
    certificate: QuorumCertificate


@register
@dataclass(frozen=True)
class CbcDelivery:
    """What consistent broadcast outputs: the value plus its proof."""

    sender: int
    value: Hashable
    certificate: QuorumCertificate


def cbc_session(sender: int, tag: object) -> SessionId:
    return ("cbc", sender, tag)


def _statement(session: SessionId, value: Hashable) -> tuple:
    return ("cbc-commit", session, value)


def verify_commit_certificate(
    ctx_public: PublicKeys,
    session: SessionId,
    value: Hashable,
    certificate: QuorumCertificate,
    memo: VerifiedMemo | None = None,
) -> bool:
    """Check a transferred commit certificate (usable outside the instance)."""
    return ctx_public.cert_quorum.verify(
        _statement(session, value), certificate, memo
    )


class FinalScreen:
    """The ``FINAL`` messages of a set of broadcasts, held unverified, one
    per (broadcast, network sender): anyone may forward one, and a forged
    one that arrives first must not displace the genuine one.  When
    ``due`` wants the broadcasts held, all held certificates are checked
    in one batch (on failure each alone, its network sender banned from
    that broadcast if it fails); otherwise they wait until :meth:`read`
    asks; each delivery is also handed to ``delivered``.  A stand-alone
    broadcast's screen is always due."""

    __slots__ = ("due", "delivered", "held")

    def __init__(
        self,
        due: Callable[[Context, set[int]], bool] = lambda _ctx, _b: True,
        delivered: Callable[[CbcDelivery], object] = lambda _delivery: None,
    ) -> None:
        self.due, self.delivered = due, delivered
        self.held: dict[tuple[int, int], tuple | None] = {}  # None: banned

    def offer(self, inst: ConsistentBroadcast, ctx: Context, sender: int, final: CbcFinal) -> None:
        key = (inst.sender, sender)
        if key not in self.held:
            self.held[key] = (inst, ctx.session, final)
            if self.due(ctx, {key[0] for key, entry in self.held.items() if entry}):
                self._check(ctx, lambda _broadcast: True)

    def read(self, ctx: Context, broadcast: int) -> None:
        """Check the held certificates of ``broadcast``: a vote reads it."""
        self._check(ctx, lambda held_broadcast: held_broadcast == broadcast)

    def _check(self, ctx: Context, wanted: Callable[[int], bool]) -> None:
        checked = [(key, e) for key, e in sorted(self.held.items()) if e and wanted(key[0])]
        self.held = {key: e for key, e in self.held.items() if not (e and wanted(key[0]))}
        claims = [(_statement(s, f.value), f.certificate) for _k, (_i, s, f) in checked]
        scheme, memo = ctx.public.cert_quorum, ctx.verified
        batch_ok = scheme.verify_all(claims, memo)
        for (key, (inst, session, final)), claim in zip(checked, claims):
            if inst.delivered:
                continue  # an earlier certificate of its broadcast passed
            if batch_ok or scheme.verify(*claim, memo):
                self.delivered(inst.deliver(ctx.at(session), final))
            else:
                self.held[key] = None  # banned from this broadcast


class ConsistentBroadcast(Protocol):
    """One instance per (sender, tag); outputs a :class:`CbcDelivery`."""

    def __init__(
        self,
        sender: int,
        value: Hashable | None = None,
        validate: Callable[[Hashable], bool] | None = None,
        finals: FinalScreen | None = None,
    ) -> None:
        self.sender = sender
        self.value = value
        self.validate = validate
        self.finals = finals if finals is not None else FinalScreen()  # or its agreement's
        self.signed_value: Hashable | None = None
        # A SEND whose validation failed is stashed (wrapped in a
        # 1-tuple so a literal None value is representable) rather than
        # dropped: external predicates can be *temporarily* false —
        # e.g. a batch referenced by digest has not arrived yet — and
        # the spawning layer re-pokes us via retry_pending.
        self._pending_send: tuple[Hashable] | None = None
        self.shares: dict[int, Signature] = {}
        self.finalized = False
        self.delivered = False

    def on_start(self, ctx: Context) -> None:
        if ctx.party == self.sender and self.value is not None:
            ctx.broadcast(CbcSend(self.value))

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, CbcSend):
            self._on_send(ctx, sender, message.value)
        elif isinstance(message, CbcEchoSignature):
            self._on_share(ctx, sender, message.signature)
        elif isinstance(message, CbcFinal):
            self._on_final(ctx, sender, message)

    def _acceptable(self, value: Hashable) -> bool:
        if self.validate is None:
            return True
        try:
            return bool(self.validate(value))
        except Exception:
            return False

    def _on_send(self, ctx: Context, sender: int, value: Hashable) -> None:
        if sender != self.sender or self.signed_value is not None:
            return
        if not self._acceptable(value):
            self._pending_send = (value,)
            return
        self._accept(ctx, value)

    def _accept(self, ctx: Context, value: Hashable) -> None:
        self._pending_send = None
        self.signed_value = value
        share = ctx.keys.cert_quorum.sign_share(
            _statement(ctx.session, value), ctx.rng, ctx.verified
        )
        ctx.send(self.sender, CbcEchoSignature(share))

    def retry_pending(self, ctx: Context) -> None:
        """Re-evaluate a stashed SEND whose validation failed earlier.

        Uniqueness is unaffected: ``signed_value`` still gates signing,
        so at most one value is ever endorsed per session.
        """
        if self.signed_value is not None or self._pending_send is None:
            return
        (value,) = self._pending_send
        if self._acceptable(value):
            self._accept(ctx, value)

    def _on_share(self, ctx: Context, sender: int, signature: Signature) -> None:
        if ctx.party != self.sender or self.finalized or self.value is None:
            return
        statement = _statement(ctx.session, self.value)
        if not ctx.public.cert_quorum.verify_share(
            statement, (sender, signature), ctx.verified
        ):
            return
        self.shares[sender] = signature
        if ctx.quorum.is_quorum(self.shares):
            self.finalized = True
            certificate = ctx.public.cert_quorum.combine(
                statement, self.shares, ctx.verified
            )
            ctx.broadcast(CbcFinal(self.value, certificate))

    def _on_final(self, ctx: Context, sender: int, message: CbcFinal) -> None:
        if not self.delivered:
            self.finals.offer(self, ctx, sender, message)

    def deliver(self, ctx: Context, final: CbcFinal) -> CbcDelivery:
        """Output a ``FINAL`` whose certificate the screen verified."""
        self.delivered = True
        delivery = CbcDelivery(self.sender, final.value, final.certificate)
        ctx.output(delivery)
        return delivery
