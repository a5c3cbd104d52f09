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

__all__ = ["ScDecryptionShare", "SecureCausalBroadcast", "sc_abc_session"]


@register
@dataclass(frozen=True)
class ScDecryptionShare:
    """A decryption share for the a-delivered ciphertext with ``digest``."""

    digest: bytes
    share: DecryptionShare


def sc_abc_session(tag: object = 0) -> SessionId:
    return ("sc-abc", tag)


def _digest(ct: Ciphertext) -> bytes:
    return hash_bytes("sc-abc-ct", ct.payload, ct.label, ct.u, ct.u_bar, ct.e, ct.f)


class SecureCausalBroadcast(Protocol):
    """Wraps an :class:`AtomicBroadcast` with threshold decryption.

    ``on_deliver(plaintext, round)`` fires in identical order at every
    honest party; plaintexts of later a-delivered ciphertexts are never
    released before earlier ones (the pending queue is drained in
    order).
    """

    def __init__(
        self, on_deliver: Callable[[bytes, int], None] | None = None
    ) -> None:
        self.on_deliver = on_deliver
        self.abc = AtomicBroadcast(on_deliver=None)  # wired in on_start
        # Ciphertexts in a-delivery order, awaiting decryption.
        self.pending: list[tuple[bytes, Ciphertext, int]] = []
        self.plaintexts: dict[bytes, bytes] = {}
        # Unverified shares per digest; verification is batched once the
        # set could decrypt (one multi-exp per ciphertext, culprits
        # pinpointed and banned on batch failure).
        self.shares: dict[bytes, dict[int, DecryptionShare]] = {}
        self.verified: dict[bytes, dict[int, DecryptionShare]] = {}
        self.bad: dict[bytes, set[int]] = {}
        self.shared: set[bytes] = set()
        self.s_delivered: list[tuple[bytes, int]] = []

    def on_start(self, ctx: Context) -> None:
        # The inner atomic broadcast runs inside this same session: this
        # instance demultiplexes decryption shares from ABC traffic, so
        # the stack figure's layering stays explicit without a second
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
        self.pending.append((digest, ct, round_number))
        if digest not in self.shared:
            self.shared.add(digest)
            share = ctx.keys.decryption.decryption_share(ct, ctx.rng, ctx.verified)
            if share is not None:
                ctx.broadcast(ScDecryptionShare(digest, share))
        self._drain(ctx)

    def _on_share(self, ctx: Context, sender: int, message: ScDecryptionShare) -> None:
        if not isinstance(message.share, DecryptionShare):
            return
        if message.share.party != sender:
            return
        digest = message.digest
        if digest in self.plaintexts or sender in self.bad.get(digest, ()):
            return
        # Keep the share unverified until a qualified set accumulates
        # (and until the ciphertext itself has a-delivered); the whole
        # set is then checked with one batched multi-exp.  Bounded per
        # digest so junk for unknown digests cannot balloon state.
        bucket = self.shares.setdefault(digest, {})
        if sender not in self.verified.get(digest, ()) and len(bucket) < 4 * ctx.n:
            bucket.setdefault(sender, message.share)
        ct = self._ciphertext_for(digest)
        if ct is None:
            return
        self._try_decrypt(ctx, digest, ct)
        self._drain(ctx)

    def _ciphertext_for(self, digest: bytes) -> Ciphertext | None:
        for d, ct, _rnd in self.pending:
            if d == digest:
                return ct
        return None

    def _try_decrypt(self, ctx: Context, digest: bytes, ct: Ciphertext) -> None:
        if digest in self.plaintexts:
            return
        verified = self.verified.setdefault(digest, {})
        unchecked = self.shares.get(digest, {})
        if unchecked:
            if not ctx.public.access_scheme.is_qualified(
                set(verified) | set(unchecked)
            ):
                return
            valid = ctx.public.encryption.verify_shares(ct, unchecked.values(), ctx.verified)
            bad = self.bad.setdefault(digest, set())
            for party in unchecked:
                if party not in valid:
                    bad.add(party)
            verified.update(valid)
            unchecked.clear()
        if not ctx.public.access_scheme.is_qualified(set(verified)):
            return
        self.plaintexts[digest] = ctx.public.encryption.combine(ct, verified)

    def _drain(self, ctx: Context) -> None:
        """s-deliver decrypted plaintexts strictly in a-delivery order."""
        while self.pending:
            digest, ct, round_number = self.pending[0]
            self._try_decrypt(ctx, digest, ct)
            if digest not in self.plaintexts:
                return
            self.pending.pop(0)
            plaintext = self.plaintexts[digest]
            self.s_delivered.append((plaintext, round_number))
            if self.on_deliver is not None:
                self.on_deliver(plaintext, round_number)
