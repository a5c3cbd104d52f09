"""Generalized linear secret sharing (Benaloh-Leichter)."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.formulas import And, Leaf, Or, Threshold, majority
from repro.adversary.attributes import (
    example1_access_formula,
    example2_access_formula,
    example2_structure,
)
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme
from repro.crypto.shamir import reconstruct, share_secret

Q = small_group().q


def test_threshold_scheme_matches_shamir_semantics():
    rng = random.Random(1)
    scheme = threshold_scheme(5, 2, Q)
    sharing = scheme.deal(4242, rng)
    assert scheme.reconstruct(sharing, {0, 2, 4}) == 4242
    assert scheme.recombination({0, 2}) is None


def test_and_gate_requires_everyone():
    rng = random.Random(2)
    scheme = LsssScheme(formula=And(Leaf(0), Leaf(1), Leaf(2)), modulus=Q)
    sharing = scheme.deal(7, rng)
    assert scheme.reconstruct(sharing, {0, 1, 2}) == 7
    assert scheme.recombination({0, 1}) is None
    assert scheme.recombination({1, 2}) is None


def test_or_gate_any_single_party():
    rng = random.Random(3)
    scheme = LsssScheme(formula=Or(Leaf(0), Leaf(1)), modulus=Q)
    sharing = scheme.deal(55, rng)
    assert scheme.reconstruct(sharing, {0}) == 55
    assert scheme.reconstruct(sharing, {1}) == 55


def test_nested_formula():
    # (P0 AND P1) OR (P2 AND P3)
    rng = random.Random(4)
    formula = Or(And(Leaf(0), Leaf(1)), And(Leaf(2), Leaf(3)))
    scheme = LsssScheme(formula=formula, modulus=Q)
    sharing = scheme.deal(31337, rng)
    assert scheme.reconstruct(sharing, {0, 1}) == 31337
    assert scheme.reconstruct(sharing, {2, 3}) == 31337
    assert scheme.recombination({0, 2}) is None
    assert scheme.recombination({1, 3}) is None


def test_party_appearing_in_multiple_leaves_gets_multiple_slots():
    formula = Or(And(Leaf(0), Leaf(1)), And(Leaf(0), Leaf(2)))
    scheme = LsssScheme(formula=formula, modulus=Q)
    assert len(scheme.slots_of_party(0)) == 2
    rng = random.Random(5)
    sharing = scheme.deal(9, rng)
    assert scheme.reconstruct(sharing, {0, 2}) == 9


def test_example1_access_structure_semantics():
    rng = random.Random(6)
    scheme = LsssScheme(formula=example1_access_formula(), modulus=Q)
    sharing = scheme.deal(777, rng)
    # Qualified: >= 3 servers covering >= 2 classes.
    assert scheme.reconstruct(sharing, {0, 1, 4}) == 777
    assert scheme.reconstruct(sharing, {4, 6, 8}) == 777
    # All of class a (4 servers, one class): not qualified.
    assert scheme.recombination({0, 1, 2, 3}) is None
    # Two servers of two classes: size too small.
    assert scheme.recombination({4, 6}) is None


def test_example2_access_structure_semantics():
    rng = random.Random(7)
    scheme = LsssScheme(formula=example2_access_formula(), modulus=Q)
    sharing = scheme.deal(2001, rng)
    structure = example2_structure()
    # The complement of any maximal corruptible set reconstructs.
    worst = max(structure.maximal_sets, key=len)
    rest = set(range(16)) - worst
    assert scheme.reconstruct(sharing, rest) == 2001
    # No corruptible coalition reconstructs.
    for bad in structure.maximal_sets[:4]:
        assert scheme.recombination(set(bad)) is None


def test_recombination_is_linear():
    """secret = Σ λ_slot · subshare_slot with public λ — the property
    the coin and the cryptosystem rely on to combine in the exponent."""
    rng = random.Random(8)
    scheme = LsssScheme(formula=example1_access_formula(), modulus=Q)
    s1 = scheme.deal(100, rng)
    s2 = scheme.deal(23, rng)
    lam = scheme.recombination({0, 4, 6})
    flat1, flat2 = s1.all_slots(), s2.all_slots()
    combined = sum(c * ((flat1[s] + flat2[s]) % Q) for s, c in lam.items()) % Q
    assert combined == (100 + 23) % Q


def test_unqualified_reconstruct_raises():
    rng = random.Random(9)
    scheme = threshold_scheme(4, 1, Q)
    sharing = scheme.deal(5, rng)
    with pytest.raises(ValueError):
        scheme.reconstruct(sharing, {2})


def test_slot_owner_lookup():
    scheme = threshold_scheme(3, 1, Q)
    for slot, party in scheme.slots():
        assert scheme.slot_owner(slot) == party
    with pytest.raises(KeyError):
        scheme.slot_owner((99, 99))


@given(st.integers(0, Q - 1), st.integers(1, 4), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_threshold_lsss_agrees_with_direct_shamir(secret, k, extra):
    """The single-gate LSSS is literally Shamir: same access semantics."""
    n = k + 1 + extra
    rng = random.Random(secret % 100000 + n * 131 + k)
    scheme = threshold_scheme(n, k, Q)
    sharing = scheme.deal(secret, rng)
    qualified = set(rng.sample(range(n), k + 1))
    assert scheme.reconstruct(sharing, qualified) == secret
    small = set(rng.sample(range(n), k))
    assert scheme.recombination(small) is None
    shares, _ = share_secret(secret, n, k, Q, random.Random(0))
    assert reconstruct(shares[: k + 1], Q) == secret


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_formula_access_semantics(data):
    """For random small formulas: a set reconstructs iff it satisfies
    the formula — dealing and recombination agree with evaluation."""
    n = data.draw(st.integers(2, 5))
    leaf = st.integers(0, n - 1).map(Leaf)
    formula_strategy = st.recursive(
        leaf,
        lambda children: st.lists(children, min_size=2, max_size=3).flatmap(
            lambda cs: st.integers(1, len(cs)).map(
                lambda k: Threshold(k=k, children=tuple(cs))
            )
        ),
        max_leaves=6,
    )
    formula = data.draw(formula_strategy)
    secret = data.draw(st.integers(0, Q - 1))
    scheme = LsssScheme(formula=formula, modulus=Q)
    rng = random.Random(42)
    sharing = scheme.deal(secret, rng)
    present = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    if formula.evaluate(present):
        assert scheme.reconstruct(sharing, present) == secret
    else:
        assert scheme.recombination(present) is None


# -- opening by small integers ---------------------------------------------


def _opening_sets(scheme, parties, sizes=None):
    """Every qualified set of ``parties`` (of the listed sizes)."""
    for size in sizes or range(1, len(parties) + 1):
        for subset in itertools.combinations(parties, size):
            if scheme.is_qualified(set(subset)):
                yield set(subset)


# Threshold schemes n ∈ {4, 7, 10}, every qualified set, and n = 16 every
# 6-set (the solver takes the first six qualified parties, so these are
# every opening there is); the paper's Examples 1 (9 parties, every set)
# and 2 (16 parties: every qualified set of at most 5 — the narrowest
# reach the widest μ — and each complement of a maximal corruptible set).
_SCHEMES = {
    "n4": (lambda: threshold_scheme(4, 1, Q), range(4), None, 4 * 3 * 2),
    "n7": (lambda: threshold_scheme(7, 2, Q), range(7), None, 5040),
    "n10": (lambda: threshold_scheme(10, 3, Q), range(10), None, 3628800),
    "n16": (lambda: threshold_scheme(16, 5, Q), range(16), [6], 20922789888000),
    "example1": (
        lambda: LsssScheme(formula=example1_access_formula(), modulus=Q), range(9), None, None
    ),
    "example2": (
        lambda: LsssScheme(formula=example2_access_formula(), modulus=Q),
        range(16), range(1, 6), None,
    ),
}
# Widest |μ| in bits over those sets: the opening exponents of a coin.
_WIDEST_MU = {"n4": 7, "n7": 18, "n10": 31, "n16": 60, "example1": 38, "example2": 52}


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_every_qualified_set_opens_delta_times_the_secret(name):
    """Σ μ·x = Δ·x over the integers mod q, one Δ for every set, and the
    mod-q recombination is μ·Δ⁻¹ of the same solution."""
    make, parties, sizes, delta = _SCHEMES[name]
    scheme = make()
    if delta is not None:
        assert scheme.delta == delta  # n!
    secret = 987654321
    flat = scheme.deal(secret, random.Random(10)).all_slots()
    sets = list(_opening_sets(scheme, list(parties), sizes))
    if name == "example2":
        sets += [set(parties) - set(bad) for bad in example2_structure().maximal_sets]
    assert sets
    for present in sets:
        mu = scheme.integer_recombination(present)
        assert {scheme.slot_owner(slot) for slot in mu} <= present
        assert sum(c * flat[slot] for slot, c in mu.items()) % Q == scheme.delta * secret % Q
        lam = scheme.recombination(present)
        assert lam == {slot: c * pow(scheme.delta, -1, Q) % Q for slot, c in mu.items()}


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_opening_exponents_are_tens_of_bits_not_the_group_order(name):
    make, parties, sizes, _ = _SCHEMES[name]
    scheme = make()
    widest = max(
        abs(c).bit_length()
        for present in _opening_sets(scheme, list(parties), sizes)
        for c in scheme.integer_recombination(present).values()
    )
    assert widest == _WIDEST_MU[name] <= 64


def test_a_walk_of_a_new_set_leaves_no_cyclic_garbage():
    """Walking the formula over a set not yet seen builds its opening
    and relations without a reference cycle: with the collector off,
    nothing is left for it to find."""
    formula = Threshold(k=2, children=(Leaf(0), Or(Leaf(1), Leaf(2)), Leaf(3)))
    scheme = LsssScheme(formula=formula, modulus=Q)
    gc.collect()
    gc.disable()
    try:
        assert scheme.integer_recombination({0, 1, 3}) is not None
        assert scheme.consistency_relations({0, 1, 3})  # three children resolve
        assert gc.collect() == 0
    finally:
        gc.enable()
