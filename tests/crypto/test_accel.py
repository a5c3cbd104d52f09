"""Acceleration primitives agree exactly with the naive computations."""

import random

from repro.crypto import accel as accel_module
from repro.crypto.accel import (
    FixedBaseTable,
    GroupAccel,
    accel_for,
    batch_coefficients,
    multiexp,
    verify_product_equations,
)
from repro.crypto.groups import small_group

GROUP = small_group()


def test_multiexp_matches_naive_product():
    rng = random.Random(1)
    p, q = GROUP.p, GROUP.q
    for size in (0, 1, 2, 3, 8, 17):
        pairs = [
            (GROUP.random_element(rng), rng.randrange(q)) for _ in range(size)
        ]
        naive = 1
        for base, exponent in pairs:
            naive = naive * pow(base, exponent, p) % p
        assert multiexp(p, pairs) == naive


def test_multiexp_handles_zero_and_large_exponents():
    p = GROUP.p
    pairs = [(GROUP.g, 0), (GROUP.g, 2 * GROUP.q + 3), (5, 1)]
    naive = pow(GROUP.g, 2 * GROUP.q + 3, p) * 5 % p
    assert multiexp(p, pairs) == naive


def test_fixed_base_table_matches_pow():
    rng = random.Random(2)
    table = FixedBaseTable(GROUP.g, GROUP.p, bits=GROUP.q.bit_length())
    for _ in range(25):
        e = rng.randrange(GROUP.q)
        assert table.pow(e) == pow(GROUP.g, e, GROUP.p)
    for e in (0, 1, GROUP.q - 1):
        assert table.pow(e) == pow(GROUP.g, e, GROUP.p)


def test_fixed_base_table_falls_back_beyond_capacity():
    table = FixedBaseTable(GROUP.g, GROUP.p, bits=16)
    huge = GROUP.q + 12345
    assert table.pow(huge) == pow(GROUP.g, huge, GROUP.p)


def test_accel_exp_and_auto_tabling_match_pow():
    rng = random.Random(3)
    accel = accel_for(GROUP)
    base = GROUP.random_element(rng)
    for _ in range(40):  # crosses the auto-tabling threshold mid-loop
        e = rng.randrange(GROUP.q)
        assert accel.exp(base, e) == pow(base, e, GROUP.p)


def test_accel_membership_matches_exponent_test():
    rng = random.Random(4)
    accel = accel_for(GROUP)
    for _ in range(20):
        member = GROUP.random_element(rng)
        assert accel.is_member(member)
        assert pow(member, GROUP.q, GROUP.p) == 1
    # A quadratic non-residue is outside the order-q subgroup.
    non_member = GROUP.p - 1
    assert not accel.is_member(non_member)
    assert pow(non_member, GROUP.q, GROUP.p) != 1
    assert not accel.is_member(0)
    assert not accel.is_member(GROUP.p)


def test_batch_coefficients_deterministic_and_nonzero():
    transcript = [GROUP.p, GROUP.g, 123, 456]
    a = batch_coefficients("test-domain", transcript, 5)
    b = batch_coefficients("test-domain", transcript, 5)
    assert a == b
    assert len(a) == 5
    assert all(0 < c < (1 << 64) for c in a)
    assert batch_coefficients("other-domain", transcript, 5) != a
    assert batch_coefficients("test-domain", [GROUP.p, GROUP.g, 123, 457], 5) != a


def test_verify_product_equations_true_and_false():
    rng = random.Random(5)
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    x = rng.randrange(1, q)
    h = pow(g, x, p)
    # Two true Schnorr-style equations g^z = a * h^c.
    equations = []
    for _ in range(2):
        r, c = rng.randrange(1, q), rng.randrange(1, q)
        a = pow(g, r, p)
        z = (r + c * x) % q
        equations.append((((g, z),), ((a, 1), (h, c))))
    coefficients = [3, 5]
    assert verify_product_equations(p, equations, coefficients, order=q)
    lhs, rhs = equations[0]
    broken = [(lhs, ((rhs[0][0] * g % p, 1), rhs[1])), equations[1]]
    assert not verify_product_equations(p, broken, coefficients, order=q)


def test_verify_product_equations_through_tables_equals_table_less():
    """Routing a batch through the group's tables changes its cost, not
    its verdict: tabled bases, untabled bases and zero exponents."""
    rng = random.Random(6)
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    accel = GroupAccel(p, q, g)
    tabled = GROUP.random_element(rng)
    for _ in range(accel_module._TABLE_THRESHOLD):
        accel.exp(tabled, rng.randrange(q))
    assert tabled in accel._tables
    for trial in range(40):
        x = rng.randrange(1, q)
        equations = []
        for _ in range(rng.randrange(1, 5)):
            # g^z = a · h^c over a tabled or an untabled key h, with the
            # occasional zero challenge or zero response.
            base = tabled if rng.randrange(2) else GROUP.random_element(rng)
            h = pow(base, x, p)
            r = rng.randrange(1, q)
            c = rng.choice((0, rng.randrange(1, q)))
            z = 0 if rng.randrange(8) == 0 else (r + c * x) % q
            a = pow(base, (z - c * x) % q, p)
            equations.append((((base, z),), ((a, 1), (h, c))))
        if trial % 2:  # break one equation
            lhs, rhs = equations[0]
            equations[0] = (lhs, ((rhs[0][0] * g % p, 1), rhs[1]))
        coefficients = [rng.getrandbits(64) or 1 for _ in equations]
        plain = verify_product_equations(p, equations, coefficients, order=q)
        assert plain == (trial % 2 == 0)
        assert (
            verify_product_equations(p, equations, coefficients, order=q, accel=accel)
            == plain
        )


def test_table_budget_is_not_eaten_by_one_shot_bases():
    """A base first seen after 200 transient ones — a joiner's verify
    key after hundreds of coins — still gets its table, and the number
    of tables never passes the budget."""
    rng = random.Random(7)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    for _ in range(200):
        transient = GROUP.random_element(rng)
        for _ in range(accel_module._TABLE_THRESHOLD):
            accel.exp(transient, rng.randrange(GROUP.q))
        assert len(accel._tables) <= accel_module._MAX_TABLES
    late = GROUP.random_element(rng)
    for _ in range(accel_module._TABLE_THRESHOLD + 3):
        e = rng.randrange(GROUP.q)
        assert accel.exp(late, e) == pow(late, e, GROUP.p)
    assert late in accel._tables
    assert GROUP.g in accel._tables  # the generator is never the victim
    assert len(accel._tables) <= accel_module._MAX_TABLES
    # Least recently *used*, not oldest: a table still in use survives a
    # further budget's worth of transients.
    for _ in range(accel_module._MAX_TABLES):
        accel.exp(late, 5)
        transient = GROUP.random_element(rng)
        for _ in range(accel_module._TABLE_THRESHOLD):
            accel.exp(transient, rng.randrange(GROUP.q))
    assert late in accel._tables
