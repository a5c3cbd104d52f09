"""TDH2 threshold encryption: robustness and CCA2-style rejection."""

import itertools
import random
from dataclasses import replace

import pytest

from repro.adversary.attributes import example1_access_formula
from repro.crypto.groups import small_group
from repro.crypto.lsss import LsssScheme, threshold_scheme
from repro.crypto.threshold_enc import deal_encryption

from .test_coin import MALFORMED

GROUP = small_group()


@pytest.fixture(scope="module")
def enc_4_1():
    rng = random.Random(41)
    scheme = threshold_scheme(4, 1, GROUP.q)
    return deal_encryption(GROUP, scheme, rng)


def _decrypt(public, holders, ct, subset, rng):
    shares = {i: holders[i].decryption_share(ct, rng) for i in subset}
    assert all(s is not None for s in shares.values())
    return public.combine(ct, shares)


def test_encrypt_decrypt_roundtrip(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(42)
    for message in (b"", b"x", b"a longer secret message!", bytes(100)):
        ct = public.encrypt(message, b"label", rng)
        assert public.check_ciphertext(ct)
        assert _decrypt(public, holders, ct, [0, 1], rng) == message


def test_different_qualified_sets_agree(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(43)
    ct = public.encrypt(b"secret", b"L", rng)
    for subset in ([0, 1], [2, 3], [1, 3], [0, 1, 2, 3]):
        assert _decrypt(public, holders, ct, subset, rng) == b"secret"


def test_tampered_payload_rejected(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(44)
    ct = public.encrypt(b"secret", b"L", rng)
    bad = replace(ct, payload=bytes(len(ct.payload)))
    assert not public.check_ciphertext(bad)
    assert holders[0].decryption_share(bad, rng) is None


def test_tampered_label_rejected(enc_4_1):
    """The label is bound into the validity proof: swapping it breaks
    the ciphertext (no re-labeling of observed requests)."""
    public, holders = enc_4_1
    rng = random.Random(45)
    ct = public.encrypt(b"secret", b"alice", rng)
    assert not public.check_ciphertext(replace(ct, label=b"mallory"))


def test_tampered_group_elements_rejected(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(46)
    ct = public.encrypt(b"secret", b"L", rng)
    assert not public.check_ciphertext(replace(ct, u=GROUP.mul(ct.u, GROUP.g)))
    assert not public.check_ciphertext(replace(ct, u_bar=GROUP.mul(ct.u_bar, GROUP.g)))
    assert not public.check_ciphertext(replace(ct, f=(ct.f + 1) % GROUP.q))
    assert not public.check_ciphertext(replace(ct, e=(ct.e + 1) % GROUP.q))


def test_mauling_payload_yields_invalid_ciphertext(enc_4_1):
    """CCA2 in action: XOR-mauling the payload (which would flip bits of
    the plaintext under the one-time pad) invalidates the proof, so no
    honest party will produce a decryption share for it."""
    public, holders = enc_4_1
    rng = random.Random(47)
    ct = public.encrypt(b"patent: gadget", b"L", rng)
    mauled_payload = bytes(b ^ 1 for b in ct.payload)
    mauled = replace(ct, payload=mauled_payload)
    assert not public.check_ciphertext(mauled)
    assert all(holders[i].decryption_share(mauled, rng) is None for i in range(4))


def test_share_verification_rejects_forgery(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(48)
    ct = public.encrypt(b"m", b"L", rng)
    share = holders[2].decryption_share(ct, rng)
    slot = next(iter(share.values))
    forged = dict(share.values)
    forged[slot] = GROUP.mul(forged[slot], GROUP.g)
    assert not public.verify_share(ct, replace(share, values=forged))


def test_share_for_other_ciphertext_rejected(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(49)
    ct1 = public.encrypt(b"m1", b"L", rng)
    ct2 = public.encrypt(b"m2", b"L", rng)
    share1 = holders[0].decryption_share(ct1, rng)
    assert not public.verify_share(ct2, share1)


def test_combine_requires_qualified_set(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(50)
    ct = public.encrypt(b"m", b"L", rng)
    shares = {0: holders[0].decryption_share(ct, rng)}
    with pytest.raises(ValueError):
        public.combine(ct, shares)


def test_combine_rejects_invalid_ciphertext(enc_4_1):
    public, holders = enc_4_1
    rng = random.Random(51)
    ct = public.encrypt(b"m", b"L", rng)
    shares = {i: holders[i].decryption_share(ct, rng) for i in (0, 1)}
    bad = replace(ct, payload=ct.payload + b"!")
    with pytest.raises(ValueError):
        public.combine(bad, shares)


def test_ciphertexts_are_randomized(enc_4_1):
    public, _ = enc_4_1
    ct1 = public.encrypt(b"same", b"L", random.Random(52))
    ct2 = public.encrypt(b"same", b"L", random.Random(53))
    assert ct1.payload != ct2.payload and ct1.u != ct2.u


def test_encryption_over_generalized_structure():
    rng = random.Random(54)
    scheme = LsssScheme(formula=example1_access_formula(), modulus=GROUP.q)
    public, holders = deal_encryption(GROUP, scheme, rng)
    ct = public.encrypt(b"multi-site secret", b"L", rng)
    shares = {i: holders[i].decryption_share(ct, rng) for i in (0, 4, 6)}
    assert public.combine(ct, shares) == b"multi-site secret"
    # class-a coalition alone cannot decrypt
    shares_a = {i: holders[i].decryption_share(ct, rng) for i in (0, 1, 2, 3)}
    with pytest.raises(ValueError):
        public.combine(ct, shares_a)


def test_every_three_of_seven_decrypt():
    """n = 7, t = 2: each qualified 3-set opens u^{Δx} by small integers
    and one pow by Δ⁻¹ recovers the plaintext."""
    rng = random.Random(48)
    public, holders = deal_encryption(GROUP, threshold_scheme(7, 2, GROUP.q), rng)
    ct = public.encrypt(b"seven servers", b"L", rng)
    shares = {i: holders[i].decryption_share(ct, rng) for i in range(7)}
    for subset in itertools.combinations(range(7), 3):
        assert public.combine(ct, {i: shares[i] for i in subset}) == b"seven servers"


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_a_malformed_decryption_share_is_refused_and_never_raises(enc_4_1, kind):
    public, holders = enc_4_1
    rng = random.Random(49)
    ct = public.encrypt(b"m", b"L", rng)
    honest = [holders[i].decryption_share(ct, rng) for i in (0, 1, 2)]
    (slot,) = honest[2].values
    bad = MALFORMED[kind](honest[2], slot)
    assert not public.verify_share(ct, bad)
    assert set(public.verify_shares(ct, [*honest[:2], bad])) == {0, 1}
