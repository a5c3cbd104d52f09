"""Linear secret sharing for general access structures (Benaloh-Leichter).

Section 4.2 requires, for every generalized Q^3 adversary structure, a
*linear* secret sharing scheme realizing the corresponding access
structure [4, 13].  The Benaloh-Leichter construction walks the
monotone threshold-gate formula:

* at a leaf for party ``i``, the current value becomes a subshare of
  party ``i``;
* at a gate ``Θ_k^m``, the current value is Shamir-shared with
  threshold ``k - 1`` among the ``m`` children (AND = additive
  sharing, OR = replication fall out as the special cases).

A party may hold several subshares ("slots"), one per leaf occurrence;
slots are identified by the leaf's path in the formula tree.
Reconstruction is *linear*: for any qualified set there are public
coefficients ``λ`` with ``secret = Σ λ_slot · subshare_slot`` — which is
what lets the threshold coin, the TDH2 cryptosystem and the proactive
resharing operate on shares *in the exponent* without ever
reconstructing the secret (robustness, Section 2.1).  They are solved
over the integers, as Shoup's RSA signatures need them (and take them
from here): small ``μ`` with ``Δ·secret = Σ μ_slot · subshare_slot``,
and ``λ = μ·Δ⁻¹ mod q``.

The classical Shamir scheme is the special case of a single
``Θ_{t+1}^n`` gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from ..adversary.formulas import Formula, Leaf, Threshold, majority
from .shamir import evaluate_polynomial

__all__ = ["SlotId", "LsssScheme", "LsssSharing", "threshold_scheme"]

# A slot is the path of a leaf occurrence in the formula tree.
SlotId = tuple[int, ...]


@dataclass(frozen=True)
class LsssSharing:
    """The result of dealing a secret: every party's labelled subshares."""

    shares: dict[int, dict[SlotId, int]]

    def share_of(self, party: int) -> dict[SlotId, int]:
        return self.shares.get(party, {})

    def all_slots(self) -> dict[SlotId, int]:
        """Flat view ``slot -> value`` (slots are globally unique)."""
        flat: dict[SlotId, int] = {}
        for subshares in self.shares.values():
            flat.update(subshares)
        return flat


@dataclass(frozen=True)
class LsssScheme:
    """A linear secret sharing scheme for a monotone access formula.

    Attributes:
        formula: the access formula (qualified sets evaluate to True).
        modulus: prime field order (``q`` of the Schnorr group, or any
            prime for standalone use).
    """

    formula: Formula
    modulus: int

    # Recombination coefficients and the slot->owner map are pure
    # functions of the (frozen) scheme; they sit on the hot path of
    # every combine, so both are memoized per instance.  The caches
    # live in __dict__ via object.__setattr__, leaving dataclass
    # equality/hash semantics untouched.
    _RECOMB_CACHE_MAX = 1024

    def __post_init__(self) -> None:
        object.__setattr__(self, "_recomb_cache", {})
        object.__setattr__(self, "_owner_map", None)

    # -- structure queries -------------------------------------------------

    def slots(self) -> list[tuple[SlotId, int]]:
        """All ``(slot, party)`` pairs in deterministic order."""
        return list(self.formula.leaves())

    def slots_of_party(self, party: int) -> list[SlotId]:
        return [slot for slot, p in self.formula.leaves() if p == party]

    def slot_owner(self, slot: SlotId) -> int:
        owners: dict[SlotId, int] | None = self.__dict__["_owner_map"]
        if owners is None:
            owners = dict(self.formula.leaves())
            object.__setattr__(self, "_owner_map", owners)
        try:
            return owners[slot]
        except KeyError:
            raise KeyError(f"unknown slot {slot}") from None

    def is_qualified(self, present: set[int] | frozenset[int]) -> bool:
        return self.formula.evaluate(frozenset(present))

    # -- dealing -----------------------------------------------------------

    def deal(self, secret: int, rng: random.Random) -> LsssSharing:
        """Share ``secret`` along the formula tree."""
        shares: dict[int, dict[SlotId, int]] = {}

        def descend(node: Formula, value: int, path: SlotId) -> None:
            if isinstance(node, Leaf):
                shares.setdefault(node.party, {})[path] = value % self.modulus
                return
            assert isinstance(node, Threshold)
            m = len(node.children)
            # Shamir with threshold k-1 among m children (points 1..m).
            coeffs = [value % self.modulus] + [
                rng.randrange(self.modulus) for _ in range(node.k - 1)
            ]
            for idx, child in enumerate(node.children):
                child_value = evaluate_polynomial(coeffs, idx + 1, self.modulus)
                descend(child, child_value, (*path, idx))

        descend(self.formula, secret % self.modulus, ())
        return LsssSharing(shares=shares)

    # -- reconstruction ------------------------------------------------------

    @cached_property
    def delta(self) -> int:
        """``Π m!`` over the formula's gates (``n!`` for a threshold scheme):
        its prime factors are below any group order, so ``y ↦ y^Δ`` permutes it."""
        return _delta(self.formula)

    def integer_recombination(
        self, present: set[int] | frozenset[int]
    ) -> dict[SlotId, int] | None:
        """``slot -> μ_slot`` with ``Δ·secret = Σ μ_slot · subshare_slot``
        over the integers (``Δ`` is :attr:`delta`; the ``μ`` are tens of
        bits), using only slots of parties in ``present``; ``None`` if
        the set is not qualified.  Deterministic: the first ``k``
        satisfied children at every gate.  Memoized per set (the same
        quorum recurs on every coin of a session); callers get a copy.
        """
        avail = frozenset(present)
        cache = self.__dict__["_recomb_cache"]
        if avail in cache:
            cached = cache[avail]
            return dict(cached) if cached is not None else None

        def solve(node: Formula, path: SlotId) -> dict[SlotId, int] | None:
            if isinstance(node, Leaf):
                if node.party in avail:
                    return {path: 1}
                return None
            assert isinstance(node, Threshold)
            solved: list[tuple[int, Formula, dict[SlotId, int]]] = []
            for idx, child in enumerate(node.children):
                solution = solve(child, (*path, idx))
                if solution is not None:
                    solved.append((idx + 1, child, solution))
                    if len(solved) == node.k:
                        break
            if len(solved) < node.k:
                return None
            # A child's solution opens Δ_child times its value; the Lagrange
            # λ_i = Π_j j / (j - i) times Δ_gate / Δ_child is an integer.
            delta = _delta(node)
            combined: dict[SlotId, int] = {}
            for point, child, solution in solved:
                num, den = delta, _delta(child)
                for other, _, _ in solved:
                    if other != point:
                        num *= other
                        den *= other - point
                factor = num // den
                for slot, coeff in solution.items():
                    combined[slot] = combined.get(slot, 0) + factor * coeff
            return combined

        result = solve(self.formula, ())
        if len(cache) >= self._RECOMB_CACHE_MAX:
            cache.clear()
        cache[avail] = dict(result) if result is not None else None
        return result

    def recombination(self, present: set[int] | frozenset[int]) -> dict[SlotId, int] | None:
        """``slot -> λ_slot`` with ``secret = Σ λ_slot · subshare_slot``
        mod ``modulus``: the integer solution's ``μ·Δ⁻¹``."""
        mu = self.integer_recombination(present)
        if mu is None:
            return None
        inverse = pow(self.delta, -1, self.modulus)
        return {slot: coeff * inverse % self.modulus for slot, coeff in mu.items()}

    def reconstruct(
        self, sharing: LsssSharing, present: set[int] | frozenset[int]
    ) -> int:
        """Recover the secret from the subshares of a qualified set."""
        lam = self.recombination(present)
        if lam is None:
            raise ValueError(f"set {sorted(present)} is not qualified")
        flat = sharing.all_slots()
        return sum(coeff * flat[slot] for slot, coeff in lam.items()) % self.modulus


def _delta(node: Formula) -> int:
    if isinstance(node, Leaf):
        return 1
    assert isinstance(node, Threshold)
    return math.factorial(len(node.children)) * math.prod(map(_delta, node.children))


def threshold_scheme(n: int, t: int, modulus: int) -> LsssScheme:
    """The ``t+1``-out-of-``n`` scheme as a single-gate LSSS (= Shamir)."""
    return LsssScheme(formula=majority(list(range(n)), t + 1), modulus=modulus)
