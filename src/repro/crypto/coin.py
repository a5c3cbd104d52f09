"""Threshold coin-tossing (Cachin-Kursawe-Shoup, Diffie-Hellman based).

The randomized Byzantine agreement protocol of [8] draws its
unpredictable random bits from a *threshold coin*: the dealer shares an
exponent ``x``; the value of the coin named ``C`` is a hash of
``H(C)^x``, where ``H`` hashes coin names into the group.  No
coalition in the adversary structure can predict the coin, yet any
qualified set of honest parties can always compute it — every share
``H(C)^{x_slot}`` comes with a Chaum-Pedersen DLEQ proof of validity
against the public verification value ``g^{x_slot}`` (robustness).

The scheme is written against the generalized LSSS of Section 4.2, so
the classical ``t+1``-threshold coin is the single-gate special case.

The value hashes ``H(C)^{Δx}``, opened by integers (``Δ = n!`` for a
threshold scheme, crypto/lsss.py): ``y ↦ y^Δ`` permutes the group, so
predicting it is predicting the ``H(C)^x`` of [8].

Verifying a quorum of shares is the dominant cost of every agreement
round; :meth:`CoinPublic.verify_shares` batches the whole quorum's DLEQ
proofs into one simultaneous multi-exponentiation and falls back to
per-share checks only to pinpoint culprits (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..codec import register
from .groups import SchnorrGroup
from .hashing import hash_to_group, hash_to_int
from .lsss import LsssScheme, SlotId
from .schnorr import VerifiedMemo
from .shared_exponent import (
    SharedExponentHolder,
    SharedExponentPublic,
    deal_shared_exponent,
)
from .zkp import DleqProof

__all__ = ["CoinPublic", "CoinShareholder", "CoinShare", "deal_coin"]


@register
@dataclass(frozen=True)
class CoinShare:
    """One party's contribution to a named coin: per-slot group elements
    with DLEQ proofs tying them to the public verification values."""

    party: int
    name: object
    values: dict[SlotId, int]
    proofs: dict[SlotId, DleqProof]


@dataclass(frozen=True)
class CoinPublic(SharedExponentPublic):
    """Public coin parameters: enough to verify shares and combine them."""

    def coin_base(self, name: object) -> int:
        """The group element ``H(C)`` for coin name ``C``."""
        return hash_to_group(self.group, "coin-name", name)

    def verify_share(self, share: CoinShare) -> bool:
        """Check that every slot value is correct w.r.t. its proof."""
        return self._share_valid(
            self.coin_base(share.name), ("coin", share.name), share
        )

    def verify_shares(
        self,
        name: object,
        shares: Iterable[CoinShare],
        memo: VerifiedMemo | None = None,
    ) -> dict[int, CoinShare]:
        """Batch-verify shares of the named coin; returns the valid ones.

        One multi-exponentiation for the whole set, per-share checks
        only to pinpoint culprits — the returned mapping ``party ->
        share`` contains precisely the shares :meth:`verify_share`
        accepts.  Shares naming a different coin or duplicating a party
        are rejected outright; a share ``memo`` vouches for (the
        verifier's own) costs no arithmetic.
        """
        return self._valid_shares(
            self.coin_base(name),
            ("coin", name),
            (share for share in shares if share.name == name),
            memo,
        )

    def combine(self, name: object, shares: dict[int, CoinShare]) -> int:
        """Combine verified shares from a qualified set into the coin value.

        Returns an unpredictable bit.  Raises if the share-holders do
        not form a qualified set of the access structure.
        """
        return self.combine_many_bits(name, shares, bits=1)

    def combine_many_bits(self, name: object, shares: dict[int, CoinShare], bits: int) -> int:
        """Like :meth:`combine` but extracts ``bits`` (1..64) unpredictable bits."""
        if not 1 <= bits <= 64:
            raise ValueError(f"a coin yields 1..64 bits, not {bits}")
        value = self._recombine(shares)
        if value is None:
            raise ValueError(
                f"parties {sorted(shares)} are not qualified to open the coin"
            )
        return hash_to_int("coin-value", name, value, bits=64) & ((1 << bits) - 1)


@dataclass(frozen=True)
class CoinShareholder(SharedExponentHolder):
    """A party's secret coin key: its LSSS subshares of ``x``."""

    public: CoinPublic

    def share_for(
        self, name: object, rng: random.Random, memo: VerifiedMemo | None = None
    ) -> CoinShare:
        """Produce this party's share of the named coin, with proofs."""
        values, proofs = self._share(
            self.public.coin_base(name), ("coin", name), rng, memo
        )
        return CoinShare(party=self.party, name=name, values=values, proofs=proofs)


def deal_coin(
    group: SchnorrGroup,
    scheme: LsssScheme,
    rng: random.Random,
) -> tuple[CoinPublic, dict[int, CoinShareholder]]:
    """Trusted-dealer setup of the coin for a given access structure."""
    _, verification, shares = deal_shared_exponent(group, scheme, rng)
    public = CoinPublic(group=group, scheme=scheme, verification=verification)
    holders = {
        party: CoinShareholder(party=party, public=public, subshares=dict(subshares))
        for party, subshares in shares.items()
    }
    return public, holders
