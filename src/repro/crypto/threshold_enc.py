"""Threshold public-key encryption with CCA2 security (Shoup-Gennaro TDH2).

Secure causal atomic broadcast (Section 3) requires a *robust*
threshold cryptosystem that is secure against adaptive chosen-
ciphertext attacks: clients encrypt their requests under the single
service public key, and the servers jointly decrypt only after the
message's position in the total order is fixed.  CCA2 security is what
defeats the "patent race" attack of Section 5.2 — a corrupted server
must not be able to transform an observed ciphertext into a related
valid one.

This is the TDH2 scheme of [36]:

* ciphertexts carry a Fiat-Shamir proof of knowledge of ``r`` binding
  ``u = g^r`` and ``ū = ĝ^r`` together with the label ``L`` — making
  the scheme plaintext-aware in the random oracle model;
* decryption shares ``u^{x_slot}`` carry Chaum-Pedersen DLEQ proofs
  against the public verification values (robustness);
* key shares follow the generalized LSSS, so both plain thresholds and
  the Section 4 adversary structures are supported.

Messages are arbitrary byte strings (hybrid DEM via a hash-derived
one-time pad, as in the original paper's H1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..codec import register
from .groups import SchnorrGroup
from .hashing import (
    encode,
    hash_to_challenge,
    hash_to_group,
    is_challenge,
    mgf1,
    xor_bytes,
)
from .lsss import LsssScheme, SlotId
from .schnorr import VerifiedMemo
from .shared_exponent import (
    SharedExponentHolder,
    SharedExponentPublic,
    deal_shared_exponent,
)
from .zkp import DleqProof

__all__ = [
    "Ciphertext",
    "DecryptionShare",
    "EncryptionPublic",
    "DecryptionShareholder",
    "second_generator",
    "deal_encryption",
]


@register
@dataclass(frozen=True)
class Ciphertext:
    """A labelled TDH2 ciphertext ``(c, L, u, ū, e, f)``."""

    payload: bytes  # c = m ⊕ H1(h^r)
    label: bytes  # L, bound into the validity proof
    u: int  # g^r
    u_bar: int  # ĝ^r
    e: int  # Fiat-Shamir challenge
    f: int  # response  f = s + r·e


@register
@dataclass(frozen=True)
class DecryptionShare:
    """One party's decryption shares ``u^{x_slot}`` with DLEQ proofs."""

    party: int
    values: dict[SlotId, int]
    proofs: dict[SlotId, DleqProof]


def second_generator(group: SchnorrGroup) -> int:
    """TDH2's ``ĝ``: hashed into the group, so nobody knows its dlog."""
    return hash_to_group(group, "tdh2-gbar", "second generator")


def _share_context(ct: Ciphertext) -> tuple:
    return ("tdh2-share", ct.payload, ct.label)


@dataclass(frozen=True)
class EncryptionPublic(SharedExponentPublic):
    """Public key material: encrypt, check ciphertexts, verify shares,
    and combine shares from a qualified set."""

    h: int  # g^x, the service encryption key
    g_bar: int  # second generator ĝ (hashed, so its dlog is unknown)

    # -- encryption (client side) ---------------------------------------

    def encrypt(self, message: bytes, label: bytes, rng: random.Random) -> Ciphertext:
        grp = self.group
        r = grp.random_exponent(rng)
        s = grp.random_exponent(rng)
        mask = mgf1(encode(grp.exp(self.h, r)), len(message), "tdh2-dem")
        payload = xor_bytes(message, mask)
        u = grp.power_of_g(r)
        w = grp.power_of_g(s)
        u_bar = grp.exp(self.g_bar, r)
        w_bar = grp.exp(self.g_bar, s)
        e = hash_to_challenge(grp, "tdh2-e", payload, label, u, w, u_bar, w_bar)
        f = (s + r * e) % grp.q
        return Ciphertext(payload=payload, label=label, u=u, u_bar=u_bar, e=e, f=f)

    # -- validity --------------------------------------------------------

    def check_ciphertext(self, ct: Ciphertext) -> bool:
        """Publicly verify well-formedness (anyone can run this)."""
        grp = self.group
        if not (grp.is_member(ct.u) and grp.is_member(ct.u_bar)):
            return False
        # ``e`` is the one challenge that travels: hold it to a
        # challenge's range before exponentiating by it.
        if not (is_challenge(grp, ct.e) and 0 <= ct.f < grp.q):
            return False
        w = grp.mul(grp.power_of_g(ct.f), grp.inv(grp.exp(ct.u, ct.e)))
        w_bar = grp.mul(grp.exp(self.g_bar, ct.f), grp.inv(grp.exp(ct.u_bar, ct.e)))
        expected = hash_to_challenge(
            grp, "tdh2-e", ct.payload, ct.label, ct.u, w, ct.u_bar, w_bar
        )
        return expected == ct.e

    def verify_share(self, ct: Ciphertext, share: DecryptionShare) -> bool:
        return self._share_valid(ct.u, _share_context(ct), share)

    def verify_shares(
        self,
        ct: Ciphertext,
        shares: Iterable[DecryptionShare],
        memo: VerifiedMemo | None = None,
    ) -> dict[int, DecryptionShare]:
        """Batch-verify decryption shares; returns the valid ones by party.

        One multi-exponentiation for the whole set, per-share checks
        only to pinpoint culprits (verdict identical to per-share
        :meth:`verify_share`, up to soundness error 2^-64 —
        docs/PERFORMANCE.md).  Duplicate parties are rejected; a share
        the verifying party's ``memo`` vouches for costs no arithmetic.
        """
        return self._valid_shares(ct.u, _share_context(ct), shares, memo)

    # -- combination -------------------------------------------------------

    def combine(self, ct: Ciphertext, shares: dict[int, DecryptionShare]) -> bytes:
        """Recover the plaintext from a qualified set of valid shares."""
        if not self.check_ciphertext(ct):
            raise ValueError("invalid ciphertext")
        h_r_delta = self._recombine(shares)  # u^{Δx} = (h^r)^Δ
        if h_r_delta is None:
            raise ValueError(f"parties {sorted(shares)} are not qualified to decrypt")
        h_r = self.group.exp(h_r_delta, pow(self.scheme.delta, -1, self.group.q))
        mask = mgf1(encode(h_r), len(ct.payload), "tdh2-dem")
        return xor_bytes(ct.payload, mask)


@dataclass(frozen=True)
class DecryptionShareholder(SharedExponentHolder):
    """A party's secret decryption key: its LSSS subshares of ``x``."""

    public: EncryptionPublic

    def decryption_share(
        self, ct: Ciphertext, rng: random.Random, memo: VerifiedMemo | None = None
    ) -> DecryptionShare | None:
        """Produce a decryption share, or ``None`` for invalid ciphertexts.

        Refusing invalid ciphertexts is the CCA2-critical step: a share
        is only ever computed for ciphertexts whose proof shows the
        requester already knows the plaintext randomness.  The party's
        ``memo`` learns its own proofs.
        """
        if not self.public.check_ciphertext(ct):
            return None
        values, proofs = self._share(ct.u, _share_context(ct), rng, memo)
        return DecryptionShare(party=self.party, values=values, proofs=proofs)


def deal_encryption(
    group: SchnorrGroup,
    scheme: LsssScheme,
    rng: random.Random,
) -> tuple[EncryptionPublic, dict[int, DecryptionShareholder]]:
    """Trusted-dealer setup of the threshold cryptosystem."""
    x, verification, shares = deal_shared_exponent(group, scheme, rng)
    public = EncryptionPublic(
        group=group,
        scheme=scheme,
        h=group.power_of_g(x),
        g_bar=second_generator(group),
        verification=verification,
    )
    holders = {
        party: DecryptionShareholder(
            party=party, public=public, subshares=dict(subshares)
        )
        for party, subshares in shares.items()
    }
    return public, holders
