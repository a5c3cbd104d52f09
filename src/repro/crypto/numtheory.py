"""Number-theoretic primitives used by all cryptographic schemes.

Everything here is deterministic given an explicit ``random.Random``
instance, which keeps protocol runs reproducible in the simulator.  The
routines are standard: Miller-Rabin primality testing, (safe) prime
generation, extended gcd / modular inverses, and CRT recombination.

The 2001-era paper used 768-1024 bit parameters; key sizes here are
explicit arguments so tests can run with short (but real) keys while the
benchmarks can scale them up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "is_probable_prime",
    "random_prime",
    "random_safe_prime",
    "egcd",
    "modinv",
    "jacobi",
    "crt",
    "SafePrime",
]

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
]


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    With ``rounds=40`` the error probability is below 2^-80, far below the
    failure probabilities already accepted by the randomized protocols.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(n ^ 0x9E3779B97F4A7C15)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Return a random prime of exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError("primes need at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class SafePrime:
    """A safe prime ``p = 2q + 1`` with its Sophie Germain prime ``q``."""

    p: int
    q: int


def random_safe_prime(bits: int, rng: random.Random) -> SafePrime:
    """Return a random safe prime ``p = 2q + 1`` with ``p`` of ``bits`` bits.

    Uses an incremental sieve over candidates for speed: sample q, then
    check both q and 2q+1 with cheap trial division before Miller-Rabin.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        # Cheap joint trial division: a small prime dividing either
        # candidate disqualifies the pair without a Miller-Rabin run.
        ok = True
        for sp in _SMALL_PRIMES:
            if q % sp == 0 and q != sp:
                ok = False
                break
            if p % sp == 0 and p != sp:
                ok = False
                break
        if not ok:
            continue
        if is_probable_prime(q) and is_probable_prime(p):
            return SafePrime(p=p, q=q)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``; raises if not invertible."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return x % m


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0`` (law of quadratic reciprocity).

    For an odd prime ``p`` this is the Legendre symbol, so membership in
    the order-``(p-1)/2`` subgroup of squares can be decided with a
    gcd-speed computation instead of a full modular exponentiation —
    the single cheapest win on the proof-verification hot path.  Trailing
    zeros go in one shift, residues are tested with masks.
    """
    if n <= 0 or not n & 1:
        raise ValueError("jacobi symbol requires odd n > 0")
    a %= n
    result = 1
    while a:
        if not a & 1:
            zeros = (a & -a).bit_length() - 1
            a >>= zeros
            if zeros & 1 and (n & 7) in (3, 5):
                result = -result
        if a & n & 2:  # reciprocity: both ≡ 3 (mod 4)
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def crt(residues: list[int], moduli: list[int]) -> int:
    """Chinese remainder recombination for pairwise-coprime moduli."""
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    total = 0
    product = 1
    for m in moduli:
        product *= m
    for r, m in zip(residues, moduli):
        partial = product // m
        total += r * partial * modinv(partial, m)
    return total % product
