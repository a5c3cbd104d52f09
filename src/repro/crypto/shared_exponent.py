"""A discrete logarithm shared under the access structure.

The threshold coin [8] and the TDH2 cryptosystem [36] rest on the same
object: an exponent ``x`` dealt through the generalized LSSS of Section
4.2, public verification values ``g^{x_slot}``, and shares
``u^{x_slot}`` of some base ``u`` (the hashed coin name, the
ciphertext's ``g^r``) that each carry a Chaum-Pedersen DLEQ proof
against the verification value.  A qualified set of valid shares
recombines to ``u^{Δx}`` by small integers (``Δ`` and ``μ`` of the
LSSS); what is then done with it is all that tells the two schemes
apart.  A robust set of shares needs no proof read: that its values lie
on one sharing in the exponent (:meth:`SharedExponentPublic.consistent`)
fixes the opened value, and the proofs are for finding culprits.  ``u`` gets one squaring ladder, built by the first share made or
batch checked in this process (crypto/accel.py).  This module is that object,
once: :class:`~repro.crypto.coin.CoinPublic` and
:class:`~repro.crypto.threshold_enc.EncryptionPublic` extend the public
half, their shareholders the secret half, and supply only the base, the
Fiat-Shamir context and the hash of the opened value.

A ``context`` is the tuple a scheme binds into every proof of one
statement (``("coin", name)``, ``("tdh2-share", payload, label)``); the
slot is appended per proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Protocol, TypeVar

from .accel import accel_for
from .groups import SchnorrGroup
from .lsss import LsssScheme, SlotId
from .schnorr import VerifiedMemo
from .zkp import DleqProof, prove_dleq, verify_dleq, verify_dleq_shares

__all__ = ["SharedExponentPublic", "SharedExponentHolder", "deal_shared_exponent"]


class _Share(Protocol):
    party: int
    values: dict[SlotId, int]
    proofs: dict[SlotId, DleqProof]


S = TypeVar("S", bound=_Share)


@dataclass(frozen=True)
class SharedExponentPublic:
    """What everyone holds: enough to verify shares and recombine them."""

    group: SchnorrGroup
    scheme: LsssScheme
    verification: dict[SlotId, int]  # slot -> g^{x_slot}

    def _well_shaped(self, share: _Share) -> bool:
        """Whether a share's values and proofs are dicts over exactly its
        party's slots, the values integers (what the wire carries is any
        value)."""
        values, proofs = share.values, share.proofs
        return (
            isinstance(values, dict) and isinstance(proofs, dict)
            and values.keys() == set(self.scheme.slots_of_party(share.party))
            == proofs.keys()
            and all(isinstance(value, int) for value in values.values())
        )

    def _share_items(
        self, base: int, context: tuple, share: _Share
    ) -> list[tuple[int, int, int, int, DleqProof, object]] | None:
        """The DLEQ batch items of one share of ``base``, or None unless
        it is well shaped."""
        if not self._well_shaped(share):
            return None
        return [
            (
                self.group.g,
                self.verification[slot],
                base,
                share.values[slot],
                share.proofs[slot],
                (*context, slot),
            )
            for slot in sorted(share.values)
        ]

    def _share_valid(self, base: int, context: tuple, share: _Share) -> bool:
        """Check every slot value of one share against its proof."""
        items = self._share_items(base, context, share)
        return items is not None and all(
            verify_dleq(self.group, g, h1, u, h2, proof, context=ctx)
            for g, h1, u, h2, proof, ctx in items
        )

    def _valid_shares(
        self,
        base: int,
        context: tuple,
        shares: Iterable[S],
        memo: VerifiedMemo | None,
    ) -> dict[int, S]:
        """Batch-verify shares of ``base``; the valid ones by party.

        All proofs of the whole set are checked with a single
        multi-exponentiation.  If the batch fails (at least one forged
        share, probability of a false pass 2^-64), each share is
        re-verified individually so culprits are pinpointed exactly —
        the result is precisely what :meth:`_share_valid` accepts
        (docs/PERFORMANCE.md).  A second share of one party is rejected
        outright; a share the verifying party's ``memo`` vouches for
        (its own, see :meth:`SharedExponentHolder._share`) costs no
        arithmetic.
        """
        accel_for(self.group).add_ladder(base)
        candidates: dict[int, tuple[S, list]] = {}
        for share in shares:
            if share.party in candidates:
                continue
            items = self._share_items(base, context, share)
            if items is not None:
                candidates[share.party] = (share, items)
        return verify_dleq_shares(self.group, candidates, memo)

    def consistent(self, shares: Mapping[int, _Share]) -> bool:
        """Whether the shares by party lie on one sharing in the exponent:
        each well shaped, each value a subgroup member, and every
        consistency relation of the LSSS on their parties
        (:meth:`~repro.crypto.lsss.LsssScheme.consistency_relations`)
        ``Π value^k = 1``.  No proof is read.  On a robust set this fixes
        the opened value as the proofs would (docs/PROTOCOLS.md,
        "Shares"): the honest members are qualified, and every dealing
        agreeing with them has their secret.  Membership is what makes
        it hold — without it ``p − s₂`` passes ``s₂² = s₁·s₃``.  Each
        relation is checked as ``Π_{k>0} value^k = Π_{k<0} value^{−k}``:
        one inversion at |p| bits costs more than both sides' powers.
        """
        accel = accel_for(self.group)
        values: dict[SlotId, int] = {}
        for party, share in shares.items():
            if share.party != party or not self._well_shaped(share):
                return False
            values.update(share.values)
        if not all(map(accel.is_member, values.values())):
            return False
        return all(
            accel.multiexp((values[slot], k) for slot, k in relation if k > 0)
            == accel.multiexp((values[slot], -k) for slot, k in relation if k < 0)
            for relation in self.scheme.consistency_relations(shares.keys())
        )

    def _recombine(self, shares: Mapping[int, _Share]) -> int | None:
        """``base^{Δx}`` from a qualified set of valid shares, else None:
        ``Π value^μ`` over exponents of tens of bits, not ``|q|``."""
        mu = self.scheme.integer_recombination(set(shares))
        if mu is None:
            return None
        return accel_for(self.group).multiexp(
            (shares[self.scheme.slot_owner(slot)].values[slot], coeff)
            for slot, coeff in mu.items()
        )


@dataclass(frozen=True)
class SharedExponentHolder:
    """A party's secret key: its LSSS subshares of ``x``."""

    party: int
    public: SharedExponentPublic
    subshares: dict[SlotId, int]

    @cached_property
    def _images(self) -> dict[SlotId, int]:
        """``g^{x_slot}`` of the subshares actually held — never read from
        ``public.verification``: a key gone stale in a reshare must keep
        proving (and vouching in a memo) for what it really is."""
        grp = self.public.group
        return {slot: grp.power_of_g(x) for slot, x in self.subshares.items()}

    def _share(
        self, base: int, context: tuple, rng: random.Random, memo: VerifiedMemo | None
    ) -> tuple[dict[SlotId, int], dict[SlotId, DleqProof]]:
        """This party's per-slot values ``base^{x_slot}`` and their proofs.

        Two exponentiations of ``base`` per slot (the value, the proof's
        second commitment) on its ladder; the ``memo`` learns the proofs.
        """
        grp = self.public.group
        accel_for(grp).add_ladder(base)
        values: dict[SlotId, int] = {}
        proofs: dict[SlotId, DleqProof] = {}
        for slot, x_slot in self.subshares.items():
            values[slot] = grp.exp(base, x_slot)
            proofs[slot] = prove_dleq(
                grp, grp.g, base, x_slot, rng, (*context, slot),
                (self._images[slot], values[slot]), memo,
            )
        return values, proofs


def deal_shared_exponent(
    group: SchnorrGroup, scheme: LsssScheme, rng: random.Random
) -> tuple[int, dict[SlotId, int], dict[int, dict[SlotId, int]]]:
    """Trusted-dealer setup: ``(x, slot -> g^{x_slot}, party -> subshares)``."""
    if scheme.modulus != group.q:
        raise ValueError("LSSS must be over Z_q of the group")
    secret = group.random_exponent(rng)
    sharing = scheme.deal(secret, rng)
    verification = {
        slot: group.power_of_g(value) for slot, value in sharing.all_slots().items()
    }
    return secret, verification, sharing.shares
