"""Schnorr groups: prime-order subgroups of Z_p^* for discrete-log crypto.

All discrete-log based schemes in the architecture (the threshold coin of
Cachin-Kursawe-Shoup, the TDH2 threshold cryptosystem of Shoup-Gennaro,
Chaum-Pedersen DLEQ proofs and plain Schnorr signatures) operate in a
group of prime order ``q`` inside ``Z_p^*`` with ``p = 2q + 1`` a safe
prime.  Group elements are plain ints; the group object carries the
parameters and the operations.

A couple of fixed groups are precomputed so tests and the simulator do
not pay safe-prime generation on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .accel import accel_for
from .numtheory import jacobi, random_safe_prime

__all__ = ["SchnorrGroup", "generate_group", "default_group", "small_group"]


@dataclass(frozen=True)
class SchnorrGroup:
    """A cyclic group of prime order ``q``: the squares modulo ``p = 2q+1``.

    Attributes:
        p: safe-prime modulus.
        q: group order, the Sophie Germain prime with ``p = 2q + 1``.
        g: a generator of the order-``q`` subgroup.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValueError("p must equal 2q + 1")
        if pow(self.g, self.q, self.p) != 1 or self.g in (0, 1):
            raise ValueError("g does not generate the order-q subgroup")

    # -- group operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def exp(self, base: int, e: int) -> int:
        return accel_for(self).exp(base, e % self.q)

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def power_of_g(self, e: int) -> int:
        return accel_for(self).exp(self.g, e % self.q)

    def is_member(self, a: int) -> bool:
        """True iff ``a`` lies in the order-q subgroup (i.e. is a QR mod p).

        Quadratic residuosity mod the safe prime is decided with the
        Jacobi symbol — gcd-speed instead of a full exponentiation.
        """
        return 0 < a < self.p and jacobi(a, self.p) == 1

    def multiexp(self, pairs) -> int:
        """``Π base^exp`` in one interleaved pass (see crypto.accel)."""
        grp_accel = accel_for(self)
        return grp_accel.multiexp([(b, e % self.q) for b, e in pairs])

    # -- sampling --------------------------------------------------------

    def random_exponent(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def random_element(self, rng: random.Random) -> int:
        return self.power_of_g(self.random_exponent(rng))

    def element_from_bytes(self, data: int) -> int:
        """Map an integer deterministically into the subgroup by squaring.

        Squaring mod a safe prime lands in the quadratic residues, which is
        exactly the order-q subgroup; this is the standard hash-to-group
        trick used to instantiate the random oracles of [8] and [36].
        """
        candidate = data % self.p
        if candidate in (0, 1, self.p - 1):
            candidate += 2
        return pow(candidate, 2, self.p)


def generate_group(bits: int, rng: random.Random) -> SchnorrGroup:
    """Generate a fresh Schnorr group with a ``bits``-bit safe prime."""
    sp = random_safe_prime(bits, rng)
    # Any square other than 1 generates the order-q subgroup.
    while True:
        h = rng.randrange(2, sp.p - 1)
        g = pow(h, 2, sp.p)
        if g != 1:
            return SchnorrGroup(p=sp.p, q=sp.q, g=g)


# Precomputed 256-bit safe-prime group: fast enough for pure-Python
# simulation while remaining a real discrete-log group (generated once
# with generate_group(256, random.Random(2001)) and inlined).
_P_256 = 92100994902829264263416118156988489682240185770887138762239302878959306994279
_Q_256 = 46050497451414632131708059078494244841120092885443569381119651439479653497139
_G_256 = 27762273022819045817900016964770171343555271410647478901621101112889733709133

# A tiny 64-bit group for property-based tests where speed matters more
# than cryptographic strength (still a genuine Schnorr group).
_P_64 = 15262613807217302063
_Q_64 = 7631306903608651031
_G_64 = 298996237192573204


def default_group() -> SchnorrGroup:
    """The standard 256-bit group used by the dealer unless overridden."""
    return SchnorrGroup(p=_P_256, q=_Q_256, g=_G_256)


def small_group() -> SchnorrGroup:
    """A 64-bit group for fast tests; NOT cryptographically strong."""
    return SchnorrGroup(p=_P_64, q=_Q_64, g=_G_64)
