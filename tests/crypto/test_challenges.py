"""Fiat-Shamir challenges are 128 bits wide — and nothing else shrank.

Every proof and signature in the stack derives its challenge through
``hashing.hash_to_challenge``; the verifier's cost per key follows the
challenge's width, the soundness argument needs only that two distinct
challenges differ by a unit mod q.  The DKG's one-time pad is *not* a
challenge and keeps the full width of Z_q.
"""

import random
from collections import Counter
from dataclasses import replace
from math import gcd

import pytest
from bench.workloads import modp_1536_group

from repro.crypto import dkg, hashing, schnorr, threshold_enc, zkp
from repro.crypto.accel import GroupAccel
from repro.crypto.groups import default_group, small_group
from repro.crypto.hashing import CHALLENGE_BITS, hash_to_challenge, is_challenge
from repro.crypto.lsss import threshold_scheme
from repro.crypto.schnorr import keygen, verify_batch
from repro.crypto.threshold_enc import deal_encryption
from repro.crypto.zkp import (
    prove_dleq,
    prove_dlog,
    verify_dleq,
    verify_dleq_batch,
    verify_dlog,
)

GROUPS = pytest.mark.parametrize(
    "group", [small_group(), default_group(), modp_1536_group()], ids=["64", "256", "1536"]
)


@pytest.fixture
def challenges(monkeypatch):
    """Every ``(domain, challenge)`` derived at a call site, in order."""
    seen = []

    def spy(group, domain, *parts):
        c = hash_to_challenge(group, domain, *parts)
        seen.append((domain, c))
        return c

    for module in (schnorr, zkp, threshold_enc):
        monkeypatch.setattr(module, "hash_to_challenge", spy)
    return seen


@GROUPS
def test_every_challenge_site_yields_a_challenge_of_the_one_width(group, challenges):
    rng = random.Random(2201)
    key = keygen(rng, group)
    sig = key.sign("statement", rng)
    assert key.verify_key.verify("statement", sig)
    assert verify_batch(group, [(key.verify_key, "statement", sig)])

    x = group.random_exponent(rng)
    u = group.random_element(rng)
    h1, h2 = group.power_of_g(x), group.exp(u, x)
    proof = prove_dleq(group, group.g, u, x, rng, context="ctx")
    assert verify_dleq(group, group.g, h1, u, h2, proof, context="ctx")
    assert verify_dleq_batch(group, [(group.g, h1, u, h2, proof, "ctx")])

    assert verify_dlog(group, h1, prove_dlog(group, x, rng, context="ctx"), context="ctx")

    public, _ = deal_encryption(group, threshold_scheme(4, 1, group.q), rng)
    assert public.check_ciphertext(public.encrypt(b"request", b"label", rng))

    # The eight sites: sign/verify/verify_batch, prove/verify/batch DLEQ,
    # prove/verify dlog, encrypt/check.
    assert Counter(domain for domain, _ in challenges) == {
        "schnorr-sig": 3, "dleq": 3, "dlog": 2, "tdh2-e": 2,
    }
    assert all(is_challenge(group, c) for _, c in challenges)
    assert all(1 <= c < min(group.q, 1 << CHALLENGE_BITS) for _, c in challenges)
    if group.q.bit_length() > CHALLENGE_BITS:
        # Wide as promised, not accidentally narrower.
        assert max(c.bit_length() for _, c in challenges) > CHALLENGE_BITS - 8


def test_challenges_cover_their_range_and_never_vanish():
    for group in (small_group(), default_group()):
        bound = min(group.q, 1 << CHALLENGE_BITS)
        drawn = [hash_to_challenge(group, "t", i) for i in range(200)]
        assert all(1 <= c < bound for c in drawn)
        assert len(set(drawn)) == 200
        assert max(drawn).bit_length() == (bound - 1).bit_length()


def test_the_dkg_pad_keeps_the_full_width_of_z_q():
    """A pad masks a subshare ``s`` as ``s + pad mod q``: one narrower
    than q would leave the subshare's high bits in the clear."""
    group = modp_1536_group()
    pads = [
        dkg._pad(group, b"k" * 32, ("dkg", 0), 0, 1, "coin", (slot,)) for slot in range(16)
    ]
    assert all(0 < pad < group.q for pad in pads)
    assert min(pad.bit_length() for pad in pads) > group.q.bit_length() - 32
    assert min(pad.bit_length() for pad in pads) > CHALLENGE_BITS


@pytest.mark.parametrize("group", [default_group(), modp_1536_group()], ids=["256", "1536"])
def test_two_answers_to_one_commitment_give_up_the_key(group):
    """Special soundness, which is what a 128-bit challenge must still
    provide: two accepting transcripts ``(a, c, z)``, ``(a, c', z')``
    yield ``x = (z - z') / (c - c')`` — the difference of two distinct
    128-bit challenges is invertible mod any q above 2^128."""
    key = keygen(random.Random(2202), group)
    first = key.sign("one", random.Random(5))
    second = key.sign("two", random.Random(5))  # the same nonce, reused
    assert first.commit == second.commit and first.response != second.response
    h = key.verify_key.h
    assert key.verify_key.verify("one", first) and key.verify_key.verify("two", second)
    c1 = hash_to_challenge(group, "schnorr-sig", h, first.commit, "one")
    c2 = hash_to_challenge(group, "schnorr-sig", h, second.commit, "two")
    assert c1 != c2 and gcd(c1 - c2, group.q) == 1
    extracted = (first.response - second.response) * pow(c1 - c2, -1, group.q) % group.q
    assert extracted == key.x


def test_a_ciphertext_challenge_wider_than_a_challenge_costs_no_exponentiation(monkeypatch):
    """``Ciphertext.e`` is the one challenge that travels; anything
    ``hash_to_challenge`` cannot have produced is refused on sight."""
    group = default_group()
    rng = random.Random(2203)
    public, _ = deal_encryption(group, threshold_scheme(4, 1, group.q), rng)
    ct = public.encrypt(b"request", b"label", rng)
    assert ct.e < 1 << CHALLENGE_BITS and public.check_ciphertext(ct)
    assert not public.check_ciphertext(replace(ct, e=ct.e + 1))  # in range, wrong

    def refuse(*args, **kwargs):
        raise AssertionError("exponentiated by an out-of-range challenge")

    monkeypatch.setattr(GroupAccel, "exp", refuse)
    for e in (0, 1 << CHALLENGE_BITS, group.q - 1, group.q):
        assert not public.check_ciphertext(replace(ct, e=e))


def test_hash_to_exponent_has_one_caller_left():
    """The full-width map serves the pad alone; a second caller is
    either a challenge (use ``hash_to_challenge``) or a new decision."""
    assert hashing.hash_to_exponent is dkg.hash_to_exponent
    for module in (schnorr, zkp, threshold_enc):
        assert not hasattr(module, "hash_to_exponent")
