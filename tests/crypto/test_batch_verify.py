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

from repro.adversary.attributes import (
    example1_access_formula,
    example2_access_formula,
)
from repro.crypto.coin import deal_coin
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme
from repro.crypto import schnorr
from repro.crypto.accel import GroupAccel
from repro.crypto.hashing import Encoded, encode
from repro.crypto.schnorr import VerifiedMemo, keygen, verify_batch
from repro.crypto.threshold_enc import deal_encryption
from repro.crypto.threshold_sig import (
    QuorumCertificate,
    deal_quorum_certs,
    deal_shoup_rsa,
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

    def no_arithmetic(*args, **kwargs):
        raise AssertionError("a remembered batch reached the multi-exp")

    monkeypatch.setattr(schnorr, "verify_product_equations", no_arithmetic)
    monkeypatch.setattr(GroupAccel, "exp", no_arithmetic)
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
