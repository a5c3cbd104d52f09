"""Threshold coin-tossing: consistency, robustness, unpredictability."""

import itertools
import random
from dataclasses import replace

import pytest

from repro.adversary.attributes import example1_access_formula
from repro.crypto.coin import deal_coin
from repro.crypto.dealer import deal_system
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme

GROUP = small_group()


@pytest.fixture(scope="module")
def coin_5_2():
    rng = random.Random(21)
    scheme = threshold_scheme(5, 2, GROUP.q)
    return deal_coin(GROUP, scheme, rng)


def test_all_qualified_sets_agree(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(22)
    values = set()
    for subset in ([0, 1, 2], [2, 3, 4], [0, 2, 4], [1, 3, 4], [0, 1, 2, 3, 4]):
        shares = {i: holders[i].share_for("coin-X", rng) for i in subset}
        values.add(public.combine("coin-X", shares))
    assert len(values) == 1
    assert values.pop() in (0, 1)


def test_different_names_give_independent_coins(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(23)
    outcomes = []
    for name in range(40):
        shares = {i: holders[i].share_for(("c", name), rng) for i in (0, 1, 2)}
        outcomes.append(public.combine(("c", name), shares))
    # Statistically both values must appear across 40 coins
    # (probability of a constant sequence is 2^-39).
    assert set(outcomes) == {0, 1}


def test_share_verification_accepts_honest(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(24)
    for i in range(5):
        assert public.verify_share(holders[i].share_for("v", rng))


def test_share_verification_rejects_wrong_value(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(25)
    share = holders[0].share_for("w", rng)
    slot = next(iter(share.values))
    forged_values = dict(share.values)
    forged_values[slot] = GROUP.mul(forged_values[slot], GROUP.g)
    assert not public.verify_share(replace(share, values=forged_values))


def test_share_verification_rejects_replayed_name(coin_5_2):
    """A share (with proof) for coin A must not pass as a share for B."""
    public, holders = coin_5_2
    rng = random.Random(26)
    share = holders[1].share_for("A", rng)
    assert not public.verify_share(replace(share, name="B"))


def test_share_verification_rejects_missing_slots(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(27)
    share = holders[2].share_for("m", rng)
    assert not public.verify_share(replace(share, values={}))


def test_combine_requires_qualified_set(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(28)
    shares = {i: holders[i].share_for("q", rng) for i in (0, 1)}
    with pytest.raises(ValueError):
        public.combine("q", shares)


def test_unqualified_shares_do_not_determine_coin(coin_5_2):
    """Unpredictability proxy: the value a corruptible coalition could
    compute from its own shares (by trying both completions) is not
    fixed — over many coins the true value disagrees with any guess
    based on two shares about half the time.  Here we just check the
    honest-combined coins are not a constant function of the first two
    shares' bits."""
    public, holders = coin_5_2
    rng = random.Random(29)
    disagreements = 0
    for name in range(30):
        shares3 = {i: holders[i].share_for(("u", name), rng) for i in (0, 1, 2)}
        true_value = public.combine(("u", name), shares3)
        other = {i: holders[i].share_for(("u", name), rng) for i in (2, 3, 4)}
        assert public.combine(("u", name), other) == true_value
        disagreements += true_value
    assert 0 < disagreements < 30


def test_coin_over_generalized_structure():
    rng = random.Random(30)
    scheme = LsssScheme(formula=example1_access_formula(), modulus=GROUP.q)
    public, holders = deal_coin(GROUP, scheme, rng)
    qualified = [{0, 4, 6}, {1, 5, 7, 8}, {4, 5, 6, 7, 8}]
    values = set()
    for subset in qualified:
        shares = {i: holders[i].share_for("gen", rng) for i in subset}
        assert all(public.verify_share(s) for s in shares.values())
        values.add(public.combine("gen", shares))
    assert len(values) == 1
    # All of class a together cannot open the coin.
    shares = {i: holders[i].share_for("gen", rng) for i in (0, 1, 2, 3)}
    with pytest.raises(ValueError):
        public.combine("gen", shares)


def test_many_bits_extraction(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(31)
    shares = {i: holders[i].share_for("bits", rng) for i in (0, 3, 4)}
    v63 = public.combine_many_bits("bits", shares, bits=63)
    assert 0 <= v63 < (1 << 63)
    other = {i: holders[i].share_for("bits", rng) for i in (1, 2, 3)}
    assert public.combine_many_bits("bits", other, bits=63) == v63


@pytest.mark.parametrize("bits", [0, -1, 65, 128])
def test_a_coin_yields_at_most_64_bits(coin_5_2, bits):
    """The value is one 64-bit hash: asking for more must not silently
    return fewer unpredictable bits than asked."""
    public, holders = coin_5_2
    rng = random.Random(33)
    shares = {i: holders[i].share_for("wide", rng) for i in (0, 1, 2)}
    with pytest.raises(ValueError, match="1..64 bits"):
        public.combine_many_bits("wide", shares, bits=bits)
    assert public.combine_many_bits("wide", shares, bits=64) & 1 == public.combine(
        "wide", shares
    )


def test_unqualified_set_is_one_error_for_bit_and_bits(coin_5_2):
    public, holders = coin_5_2
    rng = random.Random(34)
    shares = {i: holders[i].share_for("few", rng) for i in (0, 1)}
    for open_coin in (
        lambda: public.combine("few", shares),
        lambda: public.combine_many_bits("few", shares, bits=63),
    ):
        with pytest.raises(ValueError, match=r"parties \[0, 1\] are not qualified"):
            open_coin()


def test_dealer_rejects_mismatched_modulus():
    rng = random.Random(32)
    scheme = threshold_scheme(4, 1, GROUP.q + 2)
    with pytest.raises(ValueError):
        deal_coin(GROUP, scheme, rng)


def test_coin_value_and_share_proof_are_pinned():
    """The coin is a function of the dealt keys and the hashing: the
    opened value and a share's Fiat-Shamir proof stay bit for bit as
    they are.  Re-taken once, with the hash input's grammar (the coin's
    base, hence its value, and the proof's challenge are hashes); when
    challenges became 128 bits wide (``hash_to_challenge``) only the
    proof's response followed — the coin's value and both commitments
    are no function of the challenge and kept their literals."""
    keys = deal_system(4, random.Random(1302), t=1, group=GROUP)
    name = ("mvba-perm", ("mvba", ("abc", 3)))
    shares = {
        party: keys.private[party].coin.share_for(name, random.Random(party))
        for party in range(2)
    }
    assert keys.public.coin.combine_many_bits(name, shares, bits=63) == 4532353969471531207
    assert keys.public.coin.combine(name, shares) == 1
    (proof,) = shares[0].proofs.values()
    assert (proof.commit1, proof.commit2) == (13704338972472476884, 14438736191025607714)
    assert proof.response == 1148035598121928066  # re-taken with the challenge
    assert set(shares[0].proofs) == {(0,)}
    assert set(keys.public.coin.verify_shares(name, shares.values())) == {0, 1}


def test_every_three_of_seven_open_the_same_coin():
    """n = 7, t = 2: each of the 35 qualified 3-sets opens H(C)^{Δx} by
    its own small integers — one coin."""
    rng = random.Random(35)
    public, holders = deal_coin(GROUP, threshold_scheme(7, 2, GROUP.q), rng)
    shares = {i: holders[i].share_for("seven", rng) for i in range(7)}
    values = {
        public.combine_many_bits("seven", {i: shares[i] for i in subset}, bits=64)
        for subset in itertools.combinations(range(7), 3)
    }
    assert len(values) == 1


# A share that names its party and the coin correctly but whose values or
# proofs are not dicts over exactly its slots with integer values — what
# a Byzantine party can put on the wire.
MALFORMED = {
    "values-int": lambda share, slot: replace(share, values=5),
    "proofs-int": lambda share, slot: replace(share, proofs=5),
    "both-int": lambda share, slot: replace(share, values=5, proofs=5),
    "values-list": lambda share, slot: replace(share, values=[share.values[slot]]),
    "value-str": lambda share, slot: replace(share, values={slot: "5"}),
    "value-none": lambda share, slot: replace(share, values={slot: None}),
    "value-float": lambda share, slot: replace(share, values={slot: 5.0}),
    "foreign-slot": lambda share, slot: replace(
        share, values={(3,): share.values[slot]}, proofs={(3,): share.proofs[slot]}
    ),
    "extra-slot": lambda share, slot: replace(
        share, values={**share.values, (3,): 4}, proofs={**share.proofs, (3,): share.proofs[slot]}
    ),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_a_malformed_share_is_refused_and_never_raises(coin_5_2, kind):
    public, holders = coin_5_2
    rng = random.Random(36)
    honest = [holders[i].share_for("bad", rng) for i in (0, 1, 2)]
    (slot,) = honest[2].values
    bad = MALFORMED[kind](honest[2], slot)
    assert not public.verify_share(bad)
    assert set(public.verify_shares("bad", [*honest[:2], bad])) == {0, 1}
