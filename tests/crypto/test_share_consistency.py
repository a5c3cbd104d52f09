"""Shares that agree need no proof: the consistency relations of the
LSSS (``LsssScheme.consistency_relations``) and the check built on them
(``SharedExponentPublic.consistent``), over threshold, hybrid and the
paper's Example 1 and 2 structures.

A robust set — one the access formula qualifies less any corruptible
set — whose shares pass opens the dealt value; the same set with any
corruptible subset of its shares altered fails (docs/PROTOCOLS.md,
"Shares").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attributes import (
    example1_access_formula,
    example1_structure,
    example2_access_formula,
    example2_structure,
)
from repro.adversary.formulas import Formula, majority
from repro.adversary.hybrid import HybridQuorumSystem
from repro.adversary.quorums import GeneralQuorumSystem, QuorumSystem, ThresholdQuorumSystem
from repro.crypto.coin import CoinPublic, CoinShare, CoinShareholder, deal_coin
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme

GROUP = small_group()


@dataclass(frozen=True)
class Structure:
    name: str
    n: int
    formula: Formula
    quorum: QuorumSystem


STRUCTURES = [
    *(
        Structure(f"threshold-n{n}", n, majority(list(range(n)), t + 1),
                  ThresholdQuorumSystem(n=n, t=t))
        for n, t in ((4, 1), (7, 2), (10, 3))
    ),
    Structure("hybrid-n9-b1-c2", 9, majority(list(range(9)), 2),
              HybridQuorumSystem(n=9, b=1, c=2)),
    Structure("example1", 9, example1_access_formula(),
              GeneralQuorumSystem(example1_structure())),
    Structure("example2", 16, example2_access_formula(),
              GeneralQuorumSystem(example2_structure())),
]


@cache
def _dealt(structure: Structure) -> tuple[CoinPublic, dict[int, CoinShareholder]]:
    scheme = LsssScheme(formula=structure.formula, modulus=GROUP.q)
    return deal_coin(GROUP, scheme, random.Random(structure.name))


def _robust(structure: Structure, parties) -> bool:
    return structure.quorum.is_robust(parties, structure.formula.evaluate)


@st.composite
def robust_sets(draw, structure: Structure) -> frozenset[int]:
    """The shortest robust prefix of a random order of the parties, and
    as many more of them as drawn."""
    order = draw(st.permutations(range(structure.n)))
    shortest = next(
        k for k in range(structure.n + 1) if _robust(structure, order[:k])
    )
    return frozenset(order[: draw(st.integers(shortest, structure.n))])


def _shares(structure: Structure, parties, name) -> dict[int, CoinShare]:
    _, holders = _dealt(structure)
    rng = random.Random(repr(name))
    return {p: holders[p].share_for(name, rng) for p in sorted(parties)}


def _alter(value: int, how: str, factor: int) -> int:
    if how == "subgroup factor":
        return value * factor % GROUP.p
    if how == "negated":
        return GROUP.p - value  # -1 is no square mod a safe prime: no member
    return value * value % GROUP.p  # squared: a member, but the wrong one


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_consistent_robust_sets_pass_and_open_the_dealt_value(structure, data):
    public, _ = _dealt(structure)
    present = data.draw(robust_sets(structure))
    name = ("consistency", data.draw(st.integers(0, 2**16)))
    shares = _shares(structure, present, name)
    assert public.consistent(shares)
    # What is left of it without any corruptible set opens the same value.
    dropped = data.draw(st.sampled_from(list(structure.quorum.corruptible_within(present))))
    rest = {p: share for p, share in shares.items() if p not in dropped}
    assert public.combine_many_bits(name, rest, 64) == public.combine_many_bits(
        name, shares, 64
    )


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_robust_set_with_corruptible_shares_altered_fails(structure, data):
    public, _ = _dealt(structure)
    present = data.draw(robust_sets(structure))
    largest = [c for c in structure.quorum.corruptible_within(present) if c]
    corrupt = data.draw(st.sampled_from(largest))
    altered = data.draw(st.sets(st.sampled_from(sorted(corrupt)), min_size=1))
    how = data.draw(st.sampled_from(["subgroup factor", "negated", "squared"]))
    factor = GROUP.power_of_g(data.draw(st.integers(1, GROUP.q - 1)))
    name = ("consistency", data.draw(st.integers(0, 2**16)))
    shares = _shares(structure, present, name)
    for party in altered:
        share = shares[party]
        shares[party] = replace(share, values={
            slot: _alter(value, how, factor) for slot, value in share.values.items()
        })
    assert not public.consistent(shares)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
def test_the_honest_parties_alone_are_robust_or_a_quorum(structure):
    """Liveness: the honest shares alone come to a robust set, or — where
    the formula is coarser than the structure — to a quorum, which the
    screen checks by proofs; nothing waits for more than a quorum."""
    everyone = frozenset(range(structure.n))
    for corrupt in structure.quorum.corruptible_within(everyone):
        honest = everyone - corrupt
        assert _robust(structure, honest) or structure.quorum.is_quorum(honest)


def test_robust_is_2t_plus_1_for_a_threshold_and_2b_plus_1_under_hybrid_faults():
    for n, t in ((4, 1), (7, 2), (10, 3)):
        quorum = ThresholdQuorumSystem(n=n, t=t)
        formula = majority(list(range(n)), t + 1)
        sizes = {k: quorum.is_robust(range(k), formula.evaluate) for k in range(n + 1)}
        assert sizes == {k: k >= 2 * t + 1 for k in range(n + 1)}
    hybrid, formula = HybridQuorumSystem(n=9, b=1, c=2), majority(list(range(9)), 2)
    assert [hybrid.is_robust(range(k), formula.evaluate) for k in range(10)] == [
        k >= 3 for k in range(10)
    ]


def test_the_relations_are_small_integers():
    """n = 4, parties 0–2: ``s₁·s₃ = s₂²``; n = 7, parties 0–4: two
    relations, exponents at most 8; a set with no more than ``k``
    resolved children anywhere has none."""
    four = threshold_scheme(4, 1, GROUP.q)
    assert [dict(r) for r in four.consistency_relations({0, 1, 2})] == [
        {(0,): 1, (1,): -2, (2,): 1}
    ]
    assert four.consistency_relations({0, 1}) == ()
    seven = threshold_scheme(7, 2, GROUP.q).consistency_relations(range(5))
    assert len(seven) == 2
    assert max(abs(k) for relation in seven for _, k in relation) == 8


def test_relations_and_opening_come_from_one_memoized_walk():
    scheme = threshold_scheme(7, 2, GROUP.q)
    relations = scheme.consistency_relations({0, 1, 2, 3, 4})
    mu = scheme.integer_recombination({0, 1, 2, 3, 4})
    assert scheme.consistency_relations(frozenset(range(5))) is relations
    mu[(0,)] = 0  # callers get a copy of the opening
    assert scheme.integer_recombination(range(5))[(0,)] != 0


def test_a_share_of_the_wrong_shape_fails_the_check():
    structure = STRUCTURES[0]
    public, _ = _dealt(structure)
    shares = _shares(structure, {0, 1, 2}, ("shape", 1))
    share = shares[1]
    for bad in (
        replace(share, values={**share.values, (9,): 1}),
        replace(share, proofs={}),
        replace(share, values={slot: str(v) for slot, v in share.values.items()}),
        replace(share, party=2),
    ):
        assert not public.consistent({**shares, 1: bad})


def test_membership_is_what_makes_the_check_sound():
    """``p − s₂`` passes ``s₂² = s₁·s₃`` (an even exponent hides the
    sign): only the membership check refuses it."""
    structure = STRUCTURES[0]
    public, _ = _dealt(structure)
    shares = _shares(structure, {0, 1, 2}, ("negated", 1))
    middle = shares[1]
    negated = replace(middle, values={
        slot: _alter(value, "negated", 1) for slot, value in middle.values.items()
    })
    values = {slot: v for share in (shares[0], negated, shares[2])
              for slot, v in share.values.items()}
    assert values[(0,)] * values[(2,)] % GROUP.p == pow(values[(1,)], 2, GROUP.p)
    assert not public.consistent({**shares, 1: negated})
