"""Secure causal atomic broadcast (Section 3, after Reiter-Birman [33]).

Atomic broadcast plus *input causality*: client requests stay
confidential until the moment their position in the total order is
fixed.  Clients encrypt requests under the service's TDH2 public key;
the ciphertext is atomically broadcast; only once a ciphertext is
a-delivered do the servers release decryption shares, combine them,
and s-deliver the plaintext — in exactly the a-delivery order.

CCA2 security of the threshold cryptosystem is essential (Section 5.2):
a corrupted server that observes a pending ciphertext can neither
decrypt it alone nor maul it into a *related* request that the service
might schedule first.  Experiment E7 mounts precisely that front-running
attack against the notary and shows it fails here while succeeding
against plain (unencrypted) atomic broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..codec import register
from ..crypto.hashing import hash_bytes
from ..crypto.threshold_enc import Ciphertext, DecryptionShare
from .atomic_broadcast import AtomicBroadcast
from .protocol import Context, Protocol, SessionId
from .share_screen import ShareScreen

__all__ = ["ScDecryptionShare", "SecureCausalBroadcast", "sc_abc_session"]


@register
@dataclass(frozen=True)
class ScDecryptionShare:
    """A decryption share for the a-delivered ciphertext with ``digest``."""

    digest: bytes
    share: DecryptionShare


# Shares one sender may have waiting here for ciphertexts this party has
# not a-delivered yet (of the order of the runtime's per-session buffer:
# an honest sender is ahead by a few requests, a flood beyond is dropped).
_EARLY_SHARE_LIMIT = 4096


def sc_abc_session(tag: object = 0) -> SessionId:
    return ("sc-abc", tag)


def _digest(ct: Ciphertext) -> bytes:
    return hash_bytes("sc-abc-ct", ct.payload, ct.label, ct.u, ct.u_bar, ct.e, ct.f)


class SecureCausalBroadcast(Protocol):
    """Threshold decryption layered on an :class:`AtomicBroadcast`.

    ``abc`` is the broadcast this layer sits on (the paper's stack
    figure) — a replica hands in the one it owns and configured — and
    whose ``on_deliver`` it takes over in ``on_start``.

    ``on_deliver(plaintext, round)`` fires in identical order at every
    honest party; plaintexts of later a-delivered ciphertexts are never
    released before earlier ones (the pending queue is drained in
    order).
    """

    def __init__(
        self,
        on_deliver: Callable[[bytes, int], None] | None = None,
        abc: AtomicBroadcast | None = None,
    ) -> None:
        self.on_deliver = on_deliver
        self.abc = abc if abc is not None else AtomicBroadcast()
        # Digests in a-delivery order, awaiting decryption.
        self.pending: list[tuple[bytes, int]] = []
        self.plaintexts: dict[bytes, bytes] = {}
        # One screen per a-delivered ciphertext still to be decrypted —
        # never per digest a peer merely names: a share that arrives
        # before its ciphertext waits in its sender's bounded ``early``.
        self.opening: dict[bytes, tuple[Ciphertext, ShareScreen[DecryptionShare]]] = {}
        self.early: dict[int, dict[bytes, DecryptionShare]] = {}
        self.s_delivered: list[tuple[bytes, int]] = []

    def on_start(self, ctx: Context) -> None:
        # The atomic broadcast underneath runs inside this same session:
        # this instance demultiplexes decryption shares from ABC traffic,
        # so the stack figure's layering stays explicit without a second
        # top-level session.
        self.abc.on_deliver = lambda payload, rnd: self._on_a_deliver(ctx, payload, rnd)

    def submit(self, ctx: Context, ciphertext: Ciphertext) -> None:
        """s-broadcast: hand an encrypted request to the service."""
        if not ctx.public.encryption.check_ciphertext(ciphertext):
            return
        self.abc.submit(ctx, ("ct", ciphertext))

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, ScDecryptionShare):
            self._on_share(ctx, sender, message)
        else:
            self.abc.on_message(ctx, sender, message)

    # -- a-delivery -> decryption -------------------------------------------------

    def _on_a_deliver(self, ctx: Context, payload: object, round_number: int) -> None:
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "ct"
            and isinstance(payload[1], Ciphertext)
        ):
            return  # junk a corrupted party smuggled into the order
        ct = payload[1]
        if not ctx.public.encryption.check_ciphertext(ct):
            return
        digest = _digest(ct)
        self.pending.append((digest, round_number))
        if digest not in self.opening and digest not in self.plaintexts:
            screen: ShareScreen[DecryptionShare] = ShareScreen()
            self.opening[digest] = (ct, screen)
            for sender, held in sorted(self.early.items()):
                if digest in held:
                    screen.offer(sender, held.pop(digest))
            share = ctx.keys.decryption.decryption_share(ct, ctx.rng, ctx.verified)
            if share is not None:
                ctx.broadcast(ScDecryptionShare(digest, share))
        self._drain(ctx)

    def _on_share(self, ctx: Context, sender: int, message: ScDecryptionShare) -> None:
        share, digest = message.share, message.digest
        if not isinstance(share, DecryptionShare) or share.party != sender:
            return
        if not isinstance(digest, bytes) or digest in self.plaintexts:
            return
        if digest not in self.opening:
            held = self.early.setdefault(sender, {})
            if len(held) < _EARLY_SHARE_LIMIT:
                held.setdefault(digest, share)
            return
        self.opening[digest][1].offer(sender, share)
        self._try_decrypt(ctx, digest)
        self._drain(ctx)

    def _try_decrypt(self, ctx: Context, digest: bytes) -> None:
        if digest in self.plaintexts:
            return
        ct, screen = self.opening[digest]
        shares = screen.qualified_shares(
            ctx.public.access_scheme.is_qualified,
            lambda held: ctx.public.encryption.verify_shares(
                ct, held.values(), ctx.verified
            ),
        )
        if shares is not None:
            self.plaintexts[digest] = ctx.public.encryption.combine(ct, shares)
            del self.opening[digest]

    def _drain(self, ctx: Context) -> None:
        """s-deliver decrypted plaintexts strictly in a-delivery order."""
        while self.pending:
            digest, round_number = self.pending[0]
            self._try_decrypt(ctx, digest)
            if digest not in self.plaintexts:
                return
            self.pending.pop(0)
            plaintext = self.plaintexts[digest]
            self.s_delivered.append((plaintext, round_number))
            if self.on_deliver is not None:
                self.on_deliver(plaintext, round_number)
