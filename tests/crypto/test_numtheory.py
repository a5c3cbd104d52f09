"""Number theory: primality, safe primes, egcd/modinv, CRT, Jacobi."""

import random

import pytest
from bench.workloads import modp_1536_group
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.groups import default_group, small_group
from repro.crypto.numtheory import (
    crt,
    egcd,
    is_probable_prime,
    jacobi,
    modinv,
    random_prime,
    random_safe_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 104729, 2**61 - 1, 2**89 - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 341, 561, 1105, 2821, 6601, 104729 * 3]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("c", KNOWN_COMPOSITES)
def test_known_composites_including_carmichael(c):
    # 561, 1105, 2821, 6601 are Carmichael numbers: Fermat-liar heavy.
    assert not is_probable_prime(c)


def test_negative_and_zero_not_prime():
    assert not is_probable_prime(0)
    assert not is_probable_prime(-7)


def test_random_prime_has_exact_bit_length():
    rng = random.Random(1)
    for bits in (8, 16, 32, 64):
        p = random_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_random_prime_rejects_tiny_bits():
    with pytest.raises(ValueError):
        random_prime(1, random.Random(0))


def test_safe_prime_structure():
    rng = random.Random(2)
    sp = random_safe_prime(32, rng)
    assert sp.p == 2 * sp.q + 1
    assert is_probable_prime(sp.p)
    assert is_probable_prime(sp.q)
    assert sp.p.bit_length() == 32


def test_safe_prime_rejects_tiny_bits():
    with pytest.raises(ValueError):
        random_safe_prime(3, random.Random(0))


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_egcd_bezout_identity(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


def test_modinv_roundtrip():
    m = 104729
    for a in (1, 2, 17, 104728, 55):
        inv = modinv(a, m)
        assert (a * inv) % m == 1


def test_modinv_noninvertible_raises():
    with pytest.raises(ValueError):
        modinv(6, 9)


def test_modinv_of_negative_value():
    m = 101
    assert ((-3) * modinv(-3, m)) % m == 1


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_crt_reconstructs_value(x):
    moduli = [101, 103, 107, 109]
    residues = [x % m for m in moduli]
    product = 101 * 103 * 107 * 109
    assert crt(residues, moduli) == x % product


def test_crt_length_mismatch():
    with pytest.raises(ValueError):
        crt([1, 2], [3])


def _euler(a, p):
    """The Legendre symbol by Euler's criterion: ``a^((p-1)/2) mod p``."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@pytest.mark.parametrize(
    "group", [small_group(), default_group(), modp_1536_group()], ids=["64", "256", "1536"]
)
def test_jacobi_is_the_legendre_symbol_of_the_group_primes(group):
    """Euler's criterion on 2,000 random values.  At 1,536 bits one
    criterion is a 13 ms ``pow``, so the values are checked together:
    the symbol is multiplicative, so over a random subset the product of
    the symbols is the criterion of the product, and a wrong symbol
    escapes a subset with probability 1/2 — 2^-64 over 64 subsets."""
    p = group.p
    rng = random.Random(p.bit_length())
    values = [rng.randrange(1, p) for _ in range(2000)]
    symbols = [jacobi(a, p) for a in values]
    for _ in range(64):
        product, sign = 1, 1
        for a, symbol in zip(values, symbols):
            if rng.getrandbits(1):
                product, sign = product * a % p, sign * symbol
        assert _euler(product, p) == sign


def test_jacobi_is_the_product_of_legendre_symbols_below_500():
    odd_primes = [p for p in range(3, 500, 2) if is_probable_prime(p)]
    for n in range(9, 500, 2):
        if n in odd_primes:
            continue
        factors, rest = [], n
        for p in odd_primes:
            while rest % p == 0:
                factors.append(p)
                rest //= p
        for a in range(-n, 2 * n):
            expected = 1
            for p in factors:
                expected *= _euler(a % p, p)
            assert jacobi(a, n) == expected, (a, n)


def test_jacobi_edge_cases():
    p = default_group().p
    assert jacobi(0, p) == jacobi(p, p) == jacobi(-p, p) == 0
    assert jacobi(0, 1) == jacobi(7, 1) == jacobi(-7, 1) == 1
    assert jacobi(-1, p) == -1 and jacobi(-4, p) == -1  # p ≡ 3 (mod 4)
    assert jacobi(-3, 7) == jacobi(4, 7) == 1
    for n in (0, -3, 2, 10, 1 << 64):
        with pytest.raises(ValueError):
            jacobi(3, n)
