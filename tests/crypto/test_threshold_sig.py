"""Threshold signatures: Shoup RSA and quorum certificates."""

import random
from dataclasses import replace

import pytest

from repro.adversary.quorums import ThresholdQuorumSystem
from repro.crypto.groups import small_group
from repro.crypto.rsa import choose_public_exponent, generate_rsa_modulus
from repro.crypto.schnorr import keygen
from repro.crypto.threshold_sig import (
    deal_quorum_certs,
    deal_shoup_rsa,
)


@pytest.fixture(scope="module")
def rsa_4_2():
    return deal_shoup_rsa(4, 2, random.Random(61), bits=256)


class TestShoupRsa:
    def test_share_sign_verify(self, rsa_4_2):
        public, holders = rsa_4_2
        rng = random.Random(62)
        for i in (1, 2, 3, 4):
            share = holders[i].sign_share("msg", rng)
            assert public.verify_share("msg", share)

    def test_combine_and_verify(self, rsa_4_2):
        public, holders = rsa_4_2
        rng = random.Random(63)
        shares = {i: holders[i].sign_share("hello", rng) for i in (1, 3)}
        signature = public.combine("hello", shares)
        assert public.verify("hello", signature)
        assert not public.verify("other", signature)

    def test_any_k_subset_combines_to_same_signature(self, rsa_4_2):
        """RSA signatures are deterministic: every qualified subset must
        produce the unique y with y^e = H(m)."""
        public, holders = rsa_4_2
        rng = random.Random(64)
        shares = {i: holders[i].sign_share("det", rng) for i in range(1, 5)}
        sigs = {
            public.combine("det", {i: shares[i] for i in subset}).value
            for subset in ([1, 2], [3, 4], [2, 4], [1, 4])
        }
        assert len(sigs) == 1

    def test_share_for_other_message_rejected(self, rsa_4_2):
        public, holders = rsa_4_2
        share = holders[1].sign_share("A", random.Random(65))
        assert not public.verify_share("B", share)

    def test_forged_share_value_rejected(self, rsa_4_2):
        public, holders = rsa_4_2
        share = holders[2].sign_share("m", random.Random(66))
        forged = replace(share, value=(share.value * 2) % public.n_modulus)
        assert not public.verify_share("m", forged)

    def test_unknown_party_rejected(self, rsa_4_2):
        public, holders = rsa_4_2
        share = holders[1].sign_share("m", random.Random(67))
        assert not public.verify_share("m", replace(share, party=9))

    def test_combine_with_too_few_shares_raises(self, rsa_4_2):
        public, holders = rsa_4_2
        shares = {1: holders[1].sign_share("m", random.Random(68))}
        with pytest.raises(ValueError):
            public.combine("m", shares)

    def test_combine_with_corrupted_share_fails_loudly(self, rsa_4_2):
        public, holders = rsa_4_2
        rng = random.Random(69)
        good = holders[1].sign_share("m", rng)
        bad = replace(
            holders[2].sign_share("m", rng),
            value=pow(3, 5, public.n_modulus),
        )
        with pytest.raises(ValueError):
            public.combine("m", {1: good, 2: bad})

    def test_exponent_is_prime_and_large_enough(self, rsa_4_2):
        public, _ = rsa_4_2
        assert public.e > public.n_parties

    def test_modulus_generation(self):
        mod = generate_rsa_modulus(128, random.Random(70))
        assert mod.n_modulus == mod.p * mod.q
        assert mod.p != mod.q
        e = choose_public_exponent(mod, 10)
        assert e > 10

    def test_dealer_rejects_bad_k(self):
        with pytest.raises(ValueError):
            deal_shoup_rsa(3, 4, random.Random(71), bits=128)


class TestQuorumCerts:
    @pytest.fixture(scope="class")
    def certs(self):
        rng = random.Random(72)
        keys = {i: keygen(rng, small_group()) for i in range(4)}
        quorum = ThresholdQuorumSystem(n=4, t=1)
        return deal_quorum_certs(keys, qualifier=quorum.is_quorum, tag="test")

    def test_combine_and_verify(self, certs):
        public, holders = certs
        rng = random.Random(73)
        shares = {i: holders[i].sign_share("stmt", rng) for i in (0, 1, 2)}
        cert = public.combine("stmt", shares)
        assert public.verify("stmt", cert)
        assert not public.verify("other", cert)

    def test_unqualified_set_rejected(self, certs):
        public, holders = certs
        rng = random.Random(74)
        shares = {i: holders[i].sign_share("stmt", rng) for i in (0, 1)}
        with pytest.raises(ValueError):
            public.combine("stmt", shares)

    def test_bad_share_rejected_by_combine(self, certs):
        public, holders = certs
        rng = random.Random(75)
        shares = {i: holders[i].sign_share("stmt", rng) for i in (0, 1, 2)}
        shares[2] = holders[2].sign_share("different", rng)
        with pytest.raises(ValueError):
            public.combine("stmt", shares)

    def test_verify_share(self, certs):
        public, holders = certs
        rng = random.Random(76)
        share = holders[3].sign_share("s", rng)
        assert public.verify_share("s", (3, share))
        assert not public.verify_share("s", (2, share))
        assert not public.verify_share("s", (9, share))

    def test_certificate_with_unqualified_signers_fails_verify(self, certs):
        public, holders = certs
        rng = random.Random(77)
        shares = {i: holders[i].sign_share("s", rng) for i in (0, 1, 2)}
        cert = public.combine("s", shares)
        pruned = replace(
            cert, signatures={k: v for k, v in cert.signatures.items() if k < 2}
        )
        assert not public.verify("s", pruned)

    def test_tag_separation(self):
        """Shares under one scheme tag must not validate under another —
        the reason cert_quorum and the certificate-backed service
        signature use distinct tags."""
        rng = random.Random(78)
        keys = {i: keygen(rng, small_group()) for i in range(4)}
        quorum = ThresholdQuorumSystem(n=4, t=1)
        pub_a, hold_a = deal_quorum_certs(keys, quorum.is_quorum, tag="A")
        pub_b, _ = deal_quorum_certs(keys, quorum.is_quorum, tag="B")
        share = hold_a[0].sign_share("stmt", rng)
        assert pub_a.verify_share("stmt", (0, share))
        assert not pub_b.verify_share("stmt", (0, share))
