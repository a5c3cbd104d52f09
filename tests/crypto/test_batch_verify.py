"""Batched share verification: adversarial cases and batched ≡ unbatched.

The batch paths (one multi-exponentiation per quorum, random linear
combination with 64-bit Fiat-Shamir coefficients) must return *exactly*
the shares the per-share checks accept — a forged share in the set must
be rejected with the culprit pinpointed, and on randomized share sets
(honest, forged, replayed, truncated) the batched verdict must match
the unbatched one share for share, across threshold and generalized
access structures.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attributes import (
    example1_access_formula,
    example2_access_formula,
)
from repro.crypto.coin import CoinShareholder, deal_coin
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme
from repro.crypto import schnorr, zkp
from repro.crypto.accel import GroupAccel
from repro.crypto.hashing import Encoded, encode
from repro.crypto.schnorr import VerifiedMemo, keygen, verify_batch
from repro.crypto.threshold_enc import DecryptionShareholder, deal_encryption
from repro.crypto.threshold_sig import (
    QuorumCertificate,
    deal_quorum_certs,
    deal_shoup_rsa,
)
from repro.crypto.zkp import (
    prove_dleq,
    verify_dleq,
    verify_dleq_batch,
    verify_dleq_shares,
)
from repro.smr.service import build_service
from repro.smr.state_machine import KeyValueStore

GROUP = small_group()


def _forge_value(group, share):
    """Tamper one slot value (and nothing else) of a DLEQ-proved share."""
    slot = sorted(share.values)[0]
    values = dict(share.values)
    values[slot] = group.mul(values[slot], group.g)
    return replace(share, values=values)


def _forge_proof(group, share):
    """Tamper one proof commitment, leaving the values intact."""
    slot = sorted(share.proofs)[0]
    proofs = dict(share.proofs)
    proofs[slot] = replace(
        proofs[slot], commit1=group.mul(proofs[slot].commit1, group.g)
    )
    return replace(share, proofs=proofs)


def _no_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reached group arithmetic")

    monkeypatch.setattr(schnorr, "verify_product_equations", refuse)
    monkeypatch.setattr(zkp, "verify_product_equations", refuse)
    monkeypatch.setattr(GroupAccel, "exp", refuse)
    monkeypatch.setattr(GroupAccel, "multiexp", refuse)


# -- coin shares -----------------------------------------------------------------


@pytest.fixture(scope="module")
def coin_7_2():
    rng = random.Random(101)
    return deal_coin(GROUP, threshold_scheme(7, 2, GROUP.q), rng)


def test_coin_batch_rejects_single_forgery_and_names_culprit(coin_7_2):
    public, holders = coin_7_2
    rng = random.Random(102)
    shares = {i: holders[i].share_for("forge", rng) for i in range(5)}
    shares[3] = _forge_value(GROUP, shares[3])
    valid = public.verify_shares("forge", shares.values())
    assert set(valid) == {0, 1, 2, 4}  # culprit 3 pinpointed, rest kept
    for party, share in valid.items():
        assert share == shares[party]


def test_coin_batch_rejects_forged_proof_commitment(coin_7_2):
    public, holders = coin_7_2
    rng = random.Random(103)
    shares = {i: holders[i].share_for("forge2", rng) for i in range(4)}
    shares[0] = _forge_proof(GROUP, shares[0])
    assert set(public.verify_shares("forge2", shares.values())) == {1, 2, 3}


def test_coin_batch_rejects_replayed_name_and_duplicates(coin_7_2):
    public, holders = coin_7_2
    rng = random.Random(104)
    good = [holders[i].share_for("A", rng) for i in (0, 1, 2)]
    replayed = replace(holders[3].share_for("B", rng), name="A")
    duplicate = holders[0].share_for("A", rng)
    valid = public.verify_shares("A", [*good, replayed, duplicate])
    assert set(valid) == {0, 1, 2}
    # The replayed share also fails the per-share check (proof context
    # binds the name), so batched and unbatched verdicts agree.
    assert not public.verify_share(replayed)


def test_coin_all_honest_batch_accepts_everything(coin_7_2):
    public, holders = coin_7_2
    rng = random.Random(105)
    shares = [holders[i].share_for("honest", rng) for i in range(7)]
    assert set(public.verify_shares("honest", shares)) == set(range(7))


def _random_tamper(group, rng, share):
    """Return (possibly) tampered share; None marks 'leave honest'."""
    kind = rng.randrange(4)
    if kind == 0:
        return _forge_value(group, share)
    if kind == 1:
        return _forge_proof(group, share)
    if kind == 2:
        slot = sorted(share.values)[0]
        values = {k: v for k, v in share.values.items() if k != slot}
        return replace(share, values=values)  # structurally malformed
    return share


@pytest.mark.parametrize(
    "structure",
    ["t4", "t7", "t16", "example1", "example2"],
)
def test_coin_batched_equals_unbatched_randomized(structure):
    rng = random.Random(sum(structure.encode()))
    if structure == "t4":
        scheme = threshold_scheme(4, 1, GROUP.q)
    elif structure == "t7":
        scheme = threshold_scheme(7, 2, GROUP.q)
    elif structure == "t16":
        scheme = threshold_scheme(16, 5, GROUP.q)
    elif structure == "example1":
        scheme = LsssScheme(formula=example1_access_formula(), modulus=GROUP.q)
    else:
        scheme = LsssScheme(formula=example2_access_formula(), modulus=GROUP.q)
    public, holders = deal_coin(GROUP, scheme, rng)
    parties = sorted(holders)
    for trial in range(3):
        name = ("rand", structure, trial)
        subset = rng.sample(parties, k=rng.randrange(2, len(parties) + 1))
        shares = []
        for party in subset:
            share = holders[party].share_for(name, rng)
            if rng.random() < 0.4:
                share = _random_tamper(GROUP, rng, share)
            shares.append(share)
        batched = public.verify_shares(name, shares)
        unbatched = {
            s.party: s for s in shares if public.verify_share(s)
        }
        assert batched == unbatched


# -- TDH2 decryption shares ------------------------------------------------------


def test_decryption_batch_rejects_single_forgery():
    rng = random.Random(110)
    scheme = threshold_scheme(5, 1, GROUP.q)
    public, holders = deal_encryption(GROUP, scheme, rng)
    ct = public.encrypt(b"secret", b"label", rng)
    shares = {i: holders[i].decryption_share(ct, rng) for i in range(4)}
    shares[2] = _forge_value(GROUP, shares[2])
    valid = public.verify_shares(ct, shares.values())
    assert set(valid) == {0, 1, 3}
    # The surviving set still decrypts correctly.
    assert public.combine(ct, valid) == b"secret"


def test_decryption_batched_equals_unbatched_randomized():
    rng = random.Random(111)
    scheme = threshold_scheme(6, 2, GROUP.q)
    public, holders = deal_encryption(GROUP, scheme, rng)
    for trial in range(3):
        ct = public.encrypt(bytes([trial]) * 4, b"l", rng)
        shares = []
        for party in rng.sample(sorted(holders), k=5):
            share = holders[party].decryption_share(ct, rng)
            if rng.random() < 0.4:
                share = _random_tamper(GROUP, rng, share)
            shares.append(share)
        batched = public.verify_shares(ct, shares)
        unbatched = {
            s.party: s for s in shares if public.verify_share(ct, s)
        }
        assert batched == unbatched


# -- Shoup RSA signature shares --------------------------------------------------


@pytest.fixture(scope="module")
def shoup_5_3():
    rng = random.Random(120)
    return deal_shoup_rsa(5, 3, rng, bits=256)


def test_rsa_batch_rejects_single_forgery(shoup_5_3):
    public, holders = shoup_5_3
    rng = random.Random(121)
    message = ("m", 1)
    # Shoup shareholders are indexed 1..n (nonzero Shamir points).
    shares = {i: holders[i].sign_share(message, rng) for i in range(1, 5)}
    N = public.n_modulus
    shares[2] = replace(shares[2], value=shares[2].value * 3 % N)
    valid = public.verify_shares(message, shares.values())
    assert set(valid) == {1, 3, 4}
    # The survivors form a qualified set and combine to a valid signature.
    sig = public.combine(message, valid)
    assert public.verify(message, sig)


def test_rsa_negated_share_passes_both_paths(shoup_5_3):
    """Share values live in the quotient by {±1}: negation is harmless
    (combine uses only even powers), so both the per-share check and the
    batch accept ``N - value`` — the verdicts must agree exactly."""
    public, holders = shoup_5_3
    rng = random.Random(122)
    message = ("m", 2)
    share = holders[1].sign_share(message, rng)
    negated = replace(share, value=public.n_modulus - share.value)
    assert public.verify_share(message, negated)
    assert set(public.verify_shares(message, [negated])) == {1}


def test_rsa_batched_equals_unbatched_randomized(shoup_5_3):
    public, holders = shoup_5_3
    rng = random.Random(123)
    N = public.n_modulus
    for trial in range(3):
        message = ("m", 10 + trial)
        shares = []
        for party in rng.sample(sorted(holders), k=4):
            share = holders[party].sign_share(message, rng)
            kind = rng.randrange(4)
            if kind == 0:
                share = replace(share, value=share.value * 2 % N)
            elif kind == 1:
                share = replace(share, commit_v=share.commit_v * 2 % N)
            elif kind == 2:
                share = replace(share, response=share.response + 1)
            shares.append(share)
        batched = public.verify_shares(message, shares)
        unbatched = {
            s.party: s
            for s in shares
            if public.verify_share(message, s)
        }
        assert batched == unbatched


# -- quorum certificates ---------------------------------------------------------


def test_cert_batch_rejects_single_forgery():
    rng = random.Random(130)
    keys = {party: keygen(rng, GROUP) for party in range(5)}
    public, holders = deal_quorum_certs(
        keys, qualifier=lambda signers: len(signers) >= 3
    )
    message = ("stmt", 1)
    shares = {party: holders[party].sign_share(message, rng) for party in range(4)}
    shares[2] = replace(shares[2], commit=GROUP.mul(shares[2].commit, GROUP.g))
    valid = public.verify_shares(message, shares)
    assert set(valid) == {0, 1, 3}
    cert = public.combine(message, valid)
    assert public.verify(message, cert)


def _random_cert_shares(rng, holders, message):
    """Five signers; each share honest, commit-forged or response-forged."""
    shares = {}
    for party in rng.sample(sorted(holders), k=5):
        sig = holders[party].sign_share(message, rng)
        kind = rng.randrange(3)
        if kind == 0:
            sig = replace(sig, commit=GROUP.mul(sig.commit, GROUP.g))
        elif kind == 1:
            sig = replace(sig, response=(sig.response + 1) % GROUP.q)
        shares[party] = sig
    return shares


def test_cert_batched_equals_unbatched_randomized():
    """Share for share, with no memo, a cold one and a warm one."""
    rng = random.Random(131)
    keys = {party: keygen(rng, GROUP) for party in range(6)}
    public, holders = deal_quorum_certs(
        keys, qualifier=lambda signers: len(signers) >= 4
    )
    warm = VerifiedMemo()
    for trial in range(6):
        message = ("stmt", 10 + trial)
        shares = _random_cert_shares(rng, holders, message)
        unbatched = {
            party: sig
            for party, sig in shares.items()
            if public.verify_share(message, (party, sig))
        }
        assert public.verify_shares(message, shares) == unbatched
        assert public.verify_shares(message, shares, VerifiedMemo()) == unbatched
        # Warm: some of the honest shares were accepted on arrival, as
        # in consistent broadcast; the verdict on the rest is unmoved.
        for party in sorted(unbatched)[::2]:
            assert public.verify_share(message, (party, shares[party]), warm)
        assert public.verify_shares(message, shares, warm) == unbatched
        assert public.verify_shares(message, shares, warm) == unbatched
        assert {
            party: sig
            for party, sig in shares.items()
            if public.verify_share(message, (party, sig), warm)
        } == unbatched


def test_cert_failing_batch_leaves_the_memo_unchanged():
    rng = random.Random(132)
    keys = {party: keygen(rng, GROUP) for party in range(5)}
    public, holders = deal_quorum_certs(
        keys, qualifier=lambda signers: len(signers) >= 3
    )
    message = ("stmt", 2)
    shares = {party: holders[party].sign_share(message, rng) for party in range(4)}
    forged = dict(shares)
    forged[2] = replace(shares[2], response=(shares[2].response + 1) % GROUP.q)
    memo = VerifiedMemo()
    statement = Encoded(encode((public.tag, message)))
    items = [(public.verify_keys[p], statement, forged[p]) for p in sorted(forged)]
    assert not verify_batch(GROUP, items, memo)
    assert len(memo) == 0  # not even the three honest ones
    # The per-share fallback then remembers exactly the shares it accepts.
    assert set(public.verify_shares(message, forged, memo)) == {0, 1, 3}
    assert len(memo) == 3
    # A certificate over accepted shares costs nothing more; one that
    # smuggles the forgery in is still refused.
    assert public.verify(message, public.combine(message, shares, memo), memo)
    assert len(memo) == 4
    with pytest.raises(ValueError):
        public.combine(message, forged, memo)
    assert not public.verify(message, QuorumCertificate(signatures=forged), memo)
    assert len(memo) == 4


def test_cert_fully_remembered_batch_is_accepted_without_arithmetic(monkeypatch):
    rng = random.Random(133)
    keys = {party: keygen(rng, GROUP) for party in range(4)}
    public, holders = deal_quorum_certs(
        keys, qualifier=lambda signers: len(signers) >= 3
    )
    message = ("stmt", 3)
    shares = {party: holders[party].sign_share(message, rng) for party in range(3)}
    memo = VerifiedMemo()
    for party, sig in shares.items():
        assert public.verify_share(message, (party, sig), memo)

    _no_arithmetic(monkeypatch)
    certificate = public.combine(message, shares, memo)
    assert public.verify(message, certificate, memo)
    # Another party has accepted nothing yet and must do the work itself.
    with pytest.raises(AssertionError):
        public.verify(message, certificate, VerifiedMemo())


def test_simulated_parties_do_not_share_a_memo():
    """All simulator nodes live in one process: a process-wide memo
    would let n replicas pay for one verification."""
    service = build_service(4, KeyValueStore, t=1, seed=5)
    client = service.new_client()
    memos = [runtime.verified for runtime in service.runtimes.values()]
    memos.append(client.verified)
    assert len({id(memo) for memo in memos}) == len(memos)
    service.network.start()
    nonce = client.submit(("set", "k", 1))
    service.run_until_complete(client, [nonce])
    assert all(len(memo) > 0 for memo in memos)
    # What one replica accepted, another has not necessarily seen: the
    # reply shares went to the client alone.
    assert not set(client.verified._accepted) & set(memos[0]._accepted)


# -- DLEQ: one chain, and what a party made itself -----------------------------------


def _dleq_item(rng, secret=None, u=None, context="ctx"):
    secret = secret or GROUP.random_exponent(rng)
    u = u or GROUP.random_element(rng)
    proof = prove_dleq(GROUP, GROUP.g, u, secret, rng, context)
    return (GROUP.g, GROUP.power_of_g(secret), u, GROUP.exp(u, secret), proof, context)


_MUTATIONS = ("none", "response", "commitment", "swapped", "non-member", "context")


def _mutate(kind, item, other):
    g, h1, u, h2, proof, context = item
    if kind == "response":
        proof = replace(proof, response=(proof.response + 1) % GROUP.q)
    elif kind == "commitment":
        proof = replace(proof, commit2=GROUP.mul(proof.commit2, GROUP.g))
    elif kind == "swapped":
        h2 = other[3]  # another prover's share value under this proof
    elif kind == "non-member":
        h2 = GROUP.p - h2  # -h2 is no quadratic residue mod a safe prime
    elif kind == "context":
        context = ("other", context)
    return (g, h1, u, h2, proof, context)


@given(
    seed=st.integers(0, 2**32),
    kinds=st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=5),
    shapes=st.lists(st.sampled_from(("fresh", "x=1", "u=g", "shared-u")), min_size=5, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_dleq_one_chain_verdict_equals_per_item(seed, kinds, shapes):
    """Honest, forged-response, forged-commitment, swapped-value,
    non-member and wrong-context items, over bases that repeat on both
    sides of the product (``h1 = g`` when x = 1, ``u = g``, one ``u``
    for the whole batch): the one-chain verdict is the per-item one,
    with or without a memo, and a memo only ever learns a passing batch."""
    rng = random.Random(seed)
    shared_u = GROUP.random_element(rng)
    items = []
    for kind, shape in zip(kinds, shapes):
        item = _dleq_item(
            rng,
            secret=1 if shape == "x=1" else None,
            u={"u=g": GROUP.g, "shared-u": shared_u}.get(shape),
        )
        items.append(_mutate(kind, item, _dleq_item(rng, u=item[2])))
    per_item = [
        verify_dleq(GROUP, g, h1, u, h2, proof, context=ctx)
        for g, h1, u, h2, proof, ctx in items
    ]
    assert per_item == [kind == "none" for kind in kinds]
    assert verify_dleq_batch(GROUP, items) == all(per_item)
    memo = VerifiedMemo()
    assert verify_dleq_batch(GROUP, items, memo) == all(per_item)
    assert len(memo) == (len(items) if all(per_item) else 0)
    candidates = {party: (party, [item]) for party, item in enumerate(items)}
    accepted = {party for party, ok in enumerate(per_item) if ok}
    assert set(verify_dleq_shares(GROUP, candidates)) == accepted
    assert set(verify_dleq_shares(GROUP, candidates, memo)) == accepted


def test_own_coin_share_costs_its_maker_nothing_and_everyone_else_the_check(
    coin_7_2, monkeypatch
):
    public, holders = coin_7_2
    rng = random.Random(140)
    mine, theirs = VerifiedMemo(), VerifiedMemo()
    own = holders[0].share_for("flip", rng, mine)
    peer = holders[1].share_for("flip", rng, theirs)
    assert len(mine) == len(own.proofs) == 1
    # A peer's share is checked, and only then remembered.
    assert set(public.verify_shares("flip", [own, peer], mine)) == {0, 1}
    assert len(mine) == 2
    with monkeypatch.context() as patch:
        _no_arithmetic(patch)
        assert set(public.verify_shares("flip", [own], mine)) == {0}
        assert set(public.verify_shares("flip", [own, peer], mine)) == {0, 1}
        # Structure, coin name and membership are still checked first.
        assert public.verify_shares("flop", [own], mine) == {}
        assert public.verify_shares("flip", [replace(own, party=1)], mine) == {}
        with pytest.raises(AssertionError):
            public.verify_shares("flip", [own], VerifiedMemo())
        # The vouching is for the very equation: another value, another
        # proof, another name under the same proof — all reach the check.
        for forged in (_forge_value(GROUP, own), _forge_proof(GROUP, own)):
            with pytest.raises(AssertionError):
                public.verify_shares("flip", [forged], mine)
        with pytest.raises(AssertionError):
            public.verify_shares("flop", [replace(own, name="flop")], mine)
    for forged in (_forge_value(GROUP, own), _forge_proof(GROUP, own)):
        assert public.verify_shares("flip", [forged, peer], mine) == {1: peer}
    assert public.verify_shares("flop", [replace(own, name="flop")], mine) == {}
    assert len(mine) == 2  # failures are never remembered


def test_memo_never_admits_a_proof_under_another_key_or_context():
    rng = random.Random(141)
    memo = VerifiedMemo()
    x, u = GROUP.random_exponent(rng), GROUP.random_element(rng)
    h1, h2 = GROUP.power_of_g(x), GROUP.exp(u, x)
    proof = prove_dleq(GROUP, GROUP.g, u, x, rng, "ctx", (h1, h2), memo)
    assert len(memo) == 1
    assert verify_dleq(GROUP, GROUP.g, h1, u, h2, proof, context="ctx")
    other = GROUP.power_of_g(x + 1)
    for g, k1, base, k2, ctx in (
        (GROUP.g, other, u, h2, "ctx"),  # another verification key
        (GROUP.g, h1, u, GROUP.mul(h2, u), "ctx"),  # another share value
        (GROUP.g, h1, GROUP.mul(u, GROUP.g), h2, "ctx"),  # another base
        (GROUP.g, h1, u, h2, "other"),  # another context
    ):
        assert not verify_dleq_batch(GROUP, [(g, k1, base, k2, proof, ctx)], memo)
    assert verify_dleq_batch(GROUP, [(GROUP.g, h1, u, h2, proof, "ctx")], memo)
    assert len(memo) == 1


def test_stale_shareholder_is_rejected_by_itself_and_by_peers():
    """After a reshare a replica may still hold the old epoch's
    subshares beside the new public bundle.  Its proofs (and what it
    seeds its memo with) name ``g^x`` of what it really holds, never
    ``public.verification`` — so nobody accepts its share, itself
    included, memo or not."""
    rng = random.Random(142)
    scheme = threshold_scheme(4, 1, GROUP.q)
    public, holders = deal_coin(GROUP, scheme, rng)
    _, old_holders = deal_coin(GROUP, scheme, rng)
    stale = CoinShareholder(party=2, public=public, subshares=old_holders[2].subshares)
    assert stale._images != {s: public.verification[s] for s in stale.subshares}
    for own_memo in (None, VerifiedMemo()):
        share = stale.share_for("epoch-2", rng, own_memo)
        honest = holders[0].share_for("epoch-2", rng)
        assert not public.verify_share(share)
        for memo in (None, own_memo, VerifiedMemo()):
            assert public.verify_shares("epoch-2", [share], memo) == {}
            assert public.verify_shares("epoch-2", [share, honest], memo) == {0: honest}
    # Same bytes as the holder whose key it is: nothing in a share or a
    # proof comes from the public bundle.
    assert stale.share_for("n", random.Random(1)) == replace(
        old_holders[2].share_for("n", random.Random(1)), party=2
    )


def test_own_decryption_share_is_vouched_for_and_a_stale_one_is_not(monkeypatch):
    rng = random.Random(143)
    scheme = threshold_scheme(4, 1, GROUP.q)
    public, holders = deal_encryption(GROUP, scheme, rng)
    _, old_holders = deal_encryption(GROUP, scheme, rng)
    ct = public.encrypt(b"secret", b"label", rng)
    memo = VerifiedMemo()
    own = holders[0].decryption_share(ct, rng, memo)
    peer = holders[1].decryption_share(ct, rng)
    with monkeypatch.context() as patch:
        _no_arithmetic(patch)
        assert public.verify_shares(ct, [own], memo) == {0: own}
        with pytest.raises(AssertionError):
            public.verify_shares(ct, [own, peer], memo)
    assert public.verify_shares(ct, [own, _forge_value(GROUP, peer)], memo) == {0: own}
    assert public.combine(ct, public.verify_shares(ct, [own, peer], memo)) == b"secret"
    stale = DecryptionShareholder(
        party=2, public=public, subshares=old_holders[2].subshares
    )
    stale_memo = VerifiedMemo()
    share = stale.decryption_share(ct, rng, stale_memo)
    for used in (None, stale_memo, memo):
        assert public.verify_shares(ct, [share, peer], used) == {1: peer}


def test_signing_seeds_only_the_signers_memo_and_only_its_own_key(monkeypatch):
    rng = random.Random(144)
    keys = {party: keygen(rng, GROUP) for party in range(4)}
    public, holders = deal_quorum_certs(keys, qualifier=lambda s: len(s) >= 3)
    memo = VerifiedMemo()
    share = holders[0].sign_share("stmt", rng, memo)
    plain = keys[0].sign("proposal", rng, memo)
    assert len(memo) == 2
    with monkeypatch.context() as patch:
        _no_arithmetic(patch)
        assert public.verify_share("stmt", (0, share), memo)
        assert keys[0].verify_key.verify("proposal", plain, memo)
        # Claimed for another party, another statement, or by a verifier
        # that did not make it: the arithmetic is owed.
        for statement, claimed, used in (
            ("stmt", (1, share), memo),
            ("other", (0, share), memo),
            ("stmt", (0, share), VerifiedMemo()),
        ):
            with pytest.raises(AssertionError):
                public.verify_share(statement, claimed, used)
    assert not public.verify_share("stmt", (1, share), memo)
    assert not public.verify_share("other", (0, share), memo)
    # A signing key whose public half in the bundle went stale vouches
    # for g^x of the x it holds, which the bundle's key does not match.
    stale = replace(holders[0], key=keygen(rng, GROUP))
    assert not public.verify_share("stmt", (0, stale.sign_share("stmt", rng, memo)), memo)
