"""Schnorr digital signatures.

Used for (a) the identity keys a joining server's channel keys are
derived from (hashed Diffie-Hellman, ``net/runtime.dh_channel_key``),
(b) the signed proposals inside the atomic broadcast protocol, and
(c) quorum certificates that stand in for threshold signatures under
generalized adversary structures (see DESIGN.md, substitution table).

Signatures carry the commitment ``a = g^w`` instead of the challenge
(the challenge is recomputed by hashing), so a quorum of signatures can
be checked with one simultaneous multi-exponentiation
(:func:`verify_batch`) — see docs/PERFORMANCE.md.

The same signature reaches a party several times — an atomic-broadcast
proposal arrives once on its own and then inside every agreement
candidate list that cites it; a share checked on arrival is checked
again when the certificate is combined, and the certificate again in
every message that carries it.  A :class:`VerifiedMemo` lets a party
pay for each of them once.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..codec import register
from .accel import accel_for, batch_coefficients, verify_product_equations
from .groups import SchnorrGroup, default_group
from .hashing import hash_to_challenge

__all__ = [
    "SigningKey",
    "VerifyKey",
    "Signature",
    "VerifiedMemo",
    "keygen",
    "verify_batch",
]


@register
@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(a, z)`` on a message under some public key.

    ``a = g^w`` is the commitment; the challenge ``c = H(h, a, m)`` is
    recomputed during verification and the equation ``g^z = a·h^c``
    checked directly.
    """

    commit: int
    response: int


def _sig_well_formed(grp: SchnorrGroup, signature: Signature) -> bool:
    if not isinstance(signature, Signature):
        return False
    a, z = signature.commit, signature.response
    if not (isinstance(a, int) and isinstance(z, int)):
        return False
    return 0 < a < grp.p and 0 <= z < grp.q


# Some twenty rounds of one party's signature traffic at n = 7 (a round
# is about 40 checks it has not made before); 32-byte keys, ~100 KiB full.
_MEMO_ENTRIES = 1024


class VerifiedMemo:
    """The checks one party has already passed — or never owed.

    A verification is named by the digest of every integer it reads
    (:meth:`digest`) — for a signature the group, the key, the signature
    and the challenge, which is where the signed statement enters — so a
    hit means this very equation held here before: a different
    signature on the same statement, the same signature on another
    statement or under another key, all miss.  A party does not pay to
    verify what it produced: signing and proving add the equation the
    new value satisfies by construction.  Rejections are never
    remembered.  Bounded: the oldest entry makes room for a new one.

    One per party (``ProtocolRuntime.verified``, ``ServiceClient
    .verified``), never per process: the simulator runs every replica
    in one interpreter, and a shared memo would let ``n`` of them pay
    for one verification — a saving no deployment has.
    """

    __slots__ = ("_accepted",)

    def __init__(self) -> None:
        self._accepted: dict[bytes, None] = {}

    def __len__(self) -> int:
        return len(self._accepted)

    def __contains__(self, check: object) -> bool:
        return check in self._accepted

    @staticmethod
    def digest(*equation: int) -> bytes:
        """Names one check by every integer it reads: ``(p, g, h, a, z,
        c)`` for a signature's ``g^z = a·h^c``, ``(p, g, h1, u, h2, a1,
        a2, z, c)`` for a DLEQ proof's pair.  A cache key, not a random
        oracle: plain SHA-256 of the hex rendering."""
        return hashlib.sha256((b"%x," * len(equation)) % equation).digest()

    def add(self, check: bytes) -> None:
        accepted = self._accepted
        if len(accepted) >= _MEMO_ENTRIES:
            del accepted[next(iter(accepted))]  # insertion order: the oldest
        accepted[check] = None


@dataclass(frozen=True)
class VerifyKey:
    """Public verification key ``h = g^x``."""

    group: SchnorrGroup
    h: int

    def verify(
        self, message: object, signature: Signature, memo: VerifiedMemo | None = None
    ) -> bool:
        """Check the signature; rejects malformed values outright.

        With the verifying party's ``memo``, a check it passed before
        passes again without arithmetic, and one passed now is
        remembered.
        """
        grp = self.group
        accel = accel_for(grp)
        if not accel.is_member(self.h):
            return False
        if not _sig_well_formed(grp, signature):
            return False
        a, z = signature.commit, signature.response
        c = hash_to_challenge(grp, "schnorr-sig", self.h, a, message)
        if memo is not None:
            check = memo.digest(grp.p, grp.g, self.h, a, z, c)
            if check in memo:
                return True
        ok = accel.exp(grp.g, z) == a * accel.exp(self.h, c) % grp.p
        if ok and memo is not None:
            memo.add(check)
        return ok


def verify_batch(
    group: SchnorrGroup,
    items: Sequence[tuple[VerifyKey, object, Signature]],
    memo: VerifiedMemo | None = None,
) -> bool:
    """Batch-verify ``(key, message, signature)`` triples in one multi-exp.

    Small-exponent random linear combination with deterministic
    Fiat-Shamir coefficients; soundness error 2^-64 (docs/PERFORMANCE.md).
    Verdict matches per-item :meth:`VerifyKey.verify` up to that error;
    callers fall back to per-item checks to pinpoint culprits.

    A statement the whole batch signed should be passed as one
    :class:`~repro.crypto.hashing.Encoded`: it is then encoded once,
    not once per signer.  Checks the party's ``memo`` already passed
    drop out of the batch (an empty remainder is accepted); the rest
    are remembered only if the batch passes.
    """
    accel = accel_for(group)
    equations = []
    transcript: list[object] = [group.p, group.g]
    checks: list[bytes] = []
    for key, message, signature in items:
        if key.group != group or not accel.is_member(key.h):
            return False
        if not _sig_well_formed(group, signature):
            return False
        a, z = signature.commit, signature.response
        c = hash_to_challenge(group, "schnorr-sig", key.h, a, message)
        if memo is not None:
            check = memo.digest(group.p, group.g, key.h, a, z, c)
            if check in memo:
                continue
            checks.append(check)
        if not accel.is_member(a):
            return False
        equations.append((((group.g, z),), ((a, 1), (key.h, c))))
        transcript.extend((key.h, a, z, c))
    if not equations:
        return True
    coefficients = batch_coefficients("schnorr-batch", transcript, len(equations))
    if not verify_product_equations(
        group.p, equations, coefficients, order=group.q, accel=accel
    ):
        return False
    if memo is not None:
        for check in checks:
            memo.add(check)
    return True


@dataclass(frozen=True)
class SigningKey:
    """Secret signing key ``x``; carries its own verify key."""

    group: SchnorrGroup
    x: int

    @cached_property
    def verify_key(self) -> VerifyKey:
        return VerifyKey(group=self.group, h=self.group.power_of_g(self.x))

    def sign(
        self, message: object, rng: random.Random, memo: VerifiedMemo | None = None
    ) -> Signature:
        """Sign; the signing party's ``memo`` learns the equation the new
        signature satisfies by construction (``h`` is derived from ``x``
        here and the digest names it, so no other key is vouched for)."""
        grp = self.group
        h = self.verify_key.h
        w = grp.random_exponent(rng)
        a = grp.power_of_g(w)
        c = hash_to_challenge(grp, "schnorr-sig", h, a, message)
        z = (w + c * self.x) % grp.q
        if memo is not None:
            memo.add(memo.digest(grp.p, grp.g, h, a, z, c))
        return Signature(commit=a, response=z)


def keygen(rng: random.Random, group: SchnorrGroup | None = None) -> SigningKey:
    """Generate a fresh Schnorr key pair."""
    grp = group or default_group()
    return SigningKey(group=grp, x=grp.random_exponent(rng))
