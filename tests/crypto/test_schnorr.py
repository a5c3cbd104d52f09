"""Schnorr signatures: correctness and rejection of forgeries."""

import random
from dataclasses import replace

import pytest

from repro.crypto import schnorr
from repro.crypto.accel import GroupAccel
from repro.crypto.groups import default_group, small_group
from repro.crypto.hashing import Encoded, encode
from repro.crypto.schnorr import Signature, VerifiedMemo, keygen


@pytest.fixture()
def key():
    return keygen(random.Random(3), small_group())


def test_sign_verify_roundtrip(key):
    rng = random.Random(4)
    for message in ("hello", ("tuple", 1), b"bytes", 42):
        sig = key.sign(message, rng)
        assert key.verify_key.verify(message, sig)


def test_wrong_message_rejected(key):
    sig = key.sign("msg", random.Random(5))
    assert not key.verify_key.verify("other", sig)


def test_wrong_key_rejected(key):
    other = keygen(random.Random(6), small_group())
    sig = key.sign("msg", random.Random(7))
    assert not other.verify_key.verify("msg", sig)


def test_tampered_signature_rejected(key):
    sig = key.sign("msg", random.Random(8))
    grp = key.group
    assert not key.verify_key.verify(
        "msg", replace(sig, response=(sig.response + 1) % grp.q)
    )
    assert not key.verify_key.verify(
        "msg", replace(sig, commit=grp.mul(sig.commit, grp.g))
    )


def test_malformed_values_rejected(key):
    grp = key.group
    assert not key.verify_key.verify("msg", Signature(commit=0, response=5))
    assert not key.verify_key.verify("msg", Signature(commit=grp.p, response=5))
    assert not key.verify_key.verify("msg", Signature(commit=5, response=grp.q))


def test_signatures_are_randomized(key):
    a = key.sign("msg", random.Random(9))
    b = key.sign("msg", random.Random(10))
    assert a != b  # fresh nonce per signature
    assert key.verify_key.verify("msg", a) and key.verify_key.verify("msg", b)


def test_distinct_keys_distinct_verify_keys():
    rng = random.Random(11)
    keys = [keygen(rng, small_group()) for _ in range(10)]
    assert len({k.verify_key.h for k in keys}) == 10


# -- byte-identical signatures -----------------------------------------------------


def test_signature_bytes_are_pinned():
    """Same key, same rng, same signature, commit after commit.  The
    commitment is ``g^r`` and never moves; the response follows the
    challenge, which moved once with the hash input's grammar and once
    more when challenges became 128 bits wide (``hash_to_challenge``):
    the hash input is what it was, its width is not."""
    rng = random.Random(1301)
    key = keygen(rng, default_group())
    statement = ("abc-proposal", ("abc", ("service", 0)), 7, b"\x01" * 32)
    sig = key.sign(statement, rng)
    # The literal every earlier build produced: the nonce did not move.
    assert sig.commit == (
        36815777889025203329841255896585578427567717299268137751799234813404853034097
    )
    # Re-taken with the 128-bit challenge.
    assert sig.response == (
        26930808841302345113973601360639908942732328456719874532854313686216957131609
    )
    assert key.verify_key.verify(statement, sig)
    # A pre-encoded statement hashes to the same challenge.
    assert key.verify_key.verify(Encoded(encode(statement)), sig)
    assert key.sign(Encoded(encode(statement)), random.Random(5)) == key.sign(
        statement, random.Random(5)
    )


# -- the verified memo -------------------------------------------------------------


class _CountingAccel:
    """Counts the exponentiations a verification performs."""

    def __init__(self, monkeypatch):
        self.exps = 0
        inner = GroupAccel.exp

        def counting(accel, base, exponent):
            self.exps += 1
            return inner(accel, base, exponent)

        monkeypatch.setattr(GroupAccel, "exp", counting)


def test_memo_skips_arithmetic_only_for_the_accepted_signature(key, monkeypatch):
    counter = _CountingAccel(monkeypatch)
    memo = VerifiedMemo()
    sig = key.sign("msg", random.Random(12))
    forged = replace(sig, response=(sig.response + 1) % key.group.q)
    other_sig = key.sign("msg", random.Random(13))
    other_key = keygen(random.Random(14), small_group()).verify_key

    # Rejected before the genuine signature is known ...
    assert not key.verify_key.verify("msg", forged, memo)
    assert len(memo) == 0  # failures are never remembered
    assert key.verify_key.verify("msg", sig, memo)
    assert len(memo) == 1
    # ... and after: the memo binds key, statement, commit and response.
    assert not key.verify_key.verify("msg", forged, memo)
    assert not key.verify_key.verify(
        "msg", replace(sig, commit=key.group.mul(sig.commit, key.group.g)), memo
    )
    assert not key.verify_key.verify("other", sig, memo)
    assert not other_key.verify("msg", sig, memo)
    assert len(memo) == 1

    before = counter.exps
    assert key.verify_key.verify("msg", sig, memo)  # the accepted one: free
    assert counter.exps == before
    assert key.verify_key.verify("msg", other_sig, memo)  # a fresh one: paid
    assert counter.exps == before + 2
    assert key.verify_key.verify("msg", sig)  # no memo: paid
    assert counter.exps == before + 4


def test_memo_is_bounded_and_forgets_the_oldest(key):
    memo = VerifiedMemo()
    rng = random.Random(15)
    signed = [(i, key.sign(i, rng)) for i in range(schnorr._MEMO_ENTRIES + 10)]
    for message, sig in signed:
        assert key.verify_key.verify(message, sig, memo)
        assert len(memo) <= schnorr._MEMO_ENTRIES
    assert len(memo) == schnorr._MEMO_ENTRIES
    assert all(len(check) == 32 for check in memo._accepted)
    # Forgetting costs a re-verification, never a wrong verdict.
    message, sig = signed[0]
    assert key.verify_key.verify(message, sig, memo)
    assert not key.verify_key.verify(message + 1, sig, memo)


def test_malformed_values_rejected_with_a_memo(key):
    memo = VerifiedMemo()
    grp = key.group
    assert not key.verify_key.verify("msg", Signature(commit=0, response=5), memo)
    assert not key.verify_key.verify("msg", Signature(commit=5, response=grp.q), memo)
    assert not key.verify_key.verify("msg", "junk", memo)
    assert len(memo) == 0
