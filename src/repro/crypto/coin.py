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

Verifying a quorum of shares is the dominant cost of every agreement
round; :meth:`CoinPublic.verify_shares` batches the whole quorum's DLEQ
proofs into one simultaneous multi-exponentiation and falls back to
per-share checks only to pinpoint culprits (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..codec import register
from .groups import SchnorrGroup
from .hashing import hash_to_group, hash_to_int
from .lsss import LsssScheme, SlotId
from .schnorr import VerifiedMemo
from .zkp import DleqProof, prove_dleq, verify_dleq, verify_dleq_shares

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
class CoinPublic:
    """Public coin parameters: enough to verify shares and combine them."""

    group: SchnorrGroup
    scheme: LsssScheme
    verification: dict[SlotId, int]  # slot -> g^{x_slot}

    def coin_base(self, name: object) -> int:
        """The group element ``H(C)`` for coin name ``C``."""
        return hash_to_group(self.group, "coin-name", name)

    def _share_items(
        self, base: int, share: CoinShare
    ) -> list[tuple[int, int, int, int, DleqProof, object]] | None:
        """The DLEQ batch items for one structurally well-formed share."""
        expected_slots = set(self.scheme.slots_of_party(share.party))
        if set(share.values) != expected_slots or set(share.proofs) != expected_slots:
            return None
        return [
            (
                self.group.g,
                self.verification[slot],
                base,
                share.values[slot],
                share.proofs[slot],
                ("coin", share.name, slot),
            )
            for slot in sorted(expected_slots)
        ]

    def verify_share(self, share: CoinShare) -> bool:
        """Check that every slot value is correct w.r.t. its proof."""
        base = self.coin_base(share.name)
        items = self._share_items(base, share)
        if items is None:
            return False
        return all(
            verify_dleq(self.group, g, h1, u, h2, proof, context=ctx)
            for g, h1, u, h2, proof, ctx in items
        )

    def verify_shares(
        self,
        name: object,
        shares: Iterable[CoinShare],
        memo: VerifiedMemo | None = None,
    ) -> dict[int, CoinShare]:
        """Batch-verify shares of the named coin; returns the valid ones.

        All proofs of the whole set are checked with a single
        multi-exponentiation.  If the batch fails (at least one forged
        share, probability of a false pass 2^-64), each share is
        re-verified individually so culprits are pinpointed exactly —
        the returned mapping ``party -> share`` contains precisely the
        shares that per-share verification accepts.  Shares naming a
        different coin or duplicating a party are rejected outright; a
        share the verifying party's ``memo`` vouches for (its own, see
        :meth:`CoinShareholder.share_for`) costs no arithmetic.
        """
        base = self.coin_base(name)
        candidates: dict[int, tuple[CoinShare, list]] = {}
        for share in shares:
            if share.name != name or share.party in candidates:
                continue
            items = self._share_items(base, share)
            if items is None:
                continue
            candidates[share.party] = (share, items)
        return verify_dleq_shares(self.group, candidates, memo)

    def _combined_element(self, shares: Mapping[int, CoinShare]) -> int | None:
        """``H(C)^x`` recombined from a qualified set, or None if unqualified."""
        lam = self.scheme.recombination(set(shares))
        if lam is None:
            return None
        return self.group.multiexp(
            (shares[self.scheme.slot_owner(slot)].values[slot], coeff)
            for slot, coeff in lam.items()
        )

    def combine(self, name: object, shares: dict[int, CoinShare]) -> int:
        """Combine verified shares from a qualified set into the coin value.

        Returns an unpredictable bit.  Raises if the share-holders do
        not form a qualified set of the access structure.
        """
        value = self._combined_element(shares)
        if value is None:
            raise ValueError(
                f"parties {sorted(shares)} are not qualified to open the coin"
            )
        return hash_to_int("coin-value", name, value, bits=64) & 1

    def combine_many_bits(self, name: object, shares: dict[int, CoinShare], bits: int) -> int:
        """Like :meth:`combine` but extracts up to 64 unpredictable bits."""
        value = self._combined_element(shares)
        if value is None:
            raise ValueError("not a qualified set")
        return hash_to_int("coin-value", name, value, bits=64) & ((1 << bits) - 1)


@dataclass(frozen=True)
class CoinShareholder:
    """A party's secret coin key: its LSSS subshares of ``x``."""

    party: int
    public: CoinPublic
    subshares: dict[SlotId, int]

    @cached_property
    def _images(self) -> dict[SlotId, int]:
        """``g^{x_slot}`` of the subshares actually held — never read from
        ``public.verification``: a key gone stale in a reshare must keep
        proving (and vouching in a memo) for what it really is."""
        grp = self.public.group
        return {slot: grp.power_of_g(x) for slot, x in self.subshares.items()}

    def share_for(
        self, name: object, rng: random.Random, memo: VerifiedMemo | None = None
    ) -> CoinShare:
        """Produce this party's share of the named coin, with proofs.

        Two fresh-base exponentiations per slot (the value, the proof's
        second commitment); the party's ``memo`` learns its own proofs.
        """
        grp = self.public.group
        base = self.public.coin_base(name)
        values: dict[SlotId, int] = {}
        proofs: dict[SlotId, DleqProof] = {}
        for slot, x_slot in self.subshares.items():
            values[slot] = grp.exp_once(base, x_slot)
            proofs[slot] = prove_dleq(
                grp, grp.g, base, x_slot, rng, ("coin", name, slot),
                (self._images[slot], values[slot]), memo,
            )
        return CoinShare(party=self.party, name=name, values=values, proofs=proofs)


def deal_coin(
    group: SchnorrGroup,
    scheme: LsssScheme,
    rng: random.Random,
) -> tuple[CoinPublic, dict[int, CoinShareholder]]:
    """Trusted-dealer setup of the coin for a given access structure."""
    if scheme.modulus != group.q:
        raise ValueError("LSSS must be over Z_q of the group")
    secret = group.random_exponent(rng)
    sharing = scheme.deal(secret, rng)
    verification = {
        slot: group.power_of_g(value) for slot, value in sharing.all_slots().items()
    }
    public = CoinPublic(group=group, scheme=scheme, verification=verification)
    holders = {
        party: CoinShareholder(party=party, public=public, subshares=dict(subshares))
        for party, subshares in sharing.shares.items()
    }
    return public, holders
