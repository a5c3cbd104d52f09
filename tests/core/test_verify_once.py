"""Exact-count guard: each signature is verified once per party and each
statement encoded once per hash.

One deterministic in-process run — n = 4, t = 1, FIFO delivery, the
256-bit group (so a challenge is two SHA-256 blocks and re-encoding per
block would show), one operation per atomic-broadcast round — counted
through wrappers local to this file.  The numbers are the same every
round; a change that makes a layer re-check what the layer below it
already checked, or re-encode a statement per hash block, moves them.
"""

from __future__ import annotations

import pytest

from repro.crypto import hashing, schnorr, threshold_sig
from repro.crypto.accel import GroupAccel
from repro.crypto.groups import default_group
from repro.crypto.schnorr import VerifyKey
from repro.net.scheduler import FifoScheduler
from repro.smr.service import build_service
from repro.smr.state_machine import KeyValueStore

N = 4
QUORUM = 3  # n - t
ROUNDS = 3

# Per round, signature equations that reach group arithmetic:
#
# * one by one (``VerifyKey.verify``), at each of the 4 replicas:
#   4 proposals on receipt (its own included — it arrives by broadcast),
#   3 echo shares of the consistent broadcast it sends (the fourth
#   arrives after the certificate is out and is ignored);
#   at the client: 2 reply shares (t + 1 matching replies complete a
#   request; later replies are dropped unverified)
SINGLE_PER_ROUND = N * (N + QUORUM) + 2
# * in batches (``verify_batch``), at each replica: one ``CbcFinal`` from
#   each of the 3 other senders, 3 signatures each.
BATCHED_PER_ROUND = N * (N - 1) * QUORUM
# What no longer reaches arithmetic, all of it memo hits: the 4 × 3
# proposal signatures inside the candidate list of every ``CbcSend`` (the
# predicate), the 3 shares again in ``combine``, the sender's own
# ``CbcFinal``, the certificate inside every ``MvbaValue``, and the
# client's 2 shares again when it combines them.  78 + 74 before.

# Top-level encodings per round (one per hash evaluated or statement
# rendered, not counting the per-block counter): 74 Schnorr challenges
# in certificate batches and 78 single ones, 68 batch coefficients and
# their 20 seeds, 24 signatures made, 39 certificate statements
# (rendered once per certificate operation and spliced into each
# signer's challenge), 24 DLEQ challenges, 20 batch digests, 4 batch
# size estimates, 10 coin values and bases.  575 before: every
# challenge was one encoding per SHA-256 block.  Counted at the public
# ``hashing.encode`` (what ``hash_bytes`` and ``hash_to_int`` call, and
# the name ``threshold_sig`` imports for its statements); the count of
# nested values rendered, which needed the private recursive encoder,
# is gone with it.  The number did not move with the integer grammar;
# the dealing seed did (7 -> 13): coin values are hashes, so they moved,
# and under seed 7 the third round now loses its first coin flip and
# pays a second voting round (398 = 361 + 37).
ENCODINGS_PER_ROUND = 361
SEED = 13


class _Counts:
    def __init__(self) -> None:
        self.single = 0
        self.batched = 0
        self.encodings = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.single, self.batched, self.encodings)


@pytest.fixture()
def counts(monkeypatch):
    counts = _Counts()
    verifying = [0]
    verify, exp = VerifyKey.verify, GroupAccel.exp
    batch, encode = schnorr.verify_product_equations, hashing.encode

    def counting_verify(key, *args, **kwargs):
        verifying[0] += 1
        try:
            return verify(key, *args, **kwargs)
        finally:
            verifying[0] -= 1

    def counting_exp(accel, base, exponent):
        # One per equation: h^c (g^z is the other exponentiation).
        if verifying[0] and base != accel.g:
            counts.single += 1
        return exp(accel, base, exponent)

    def counting_batch(modulus, equations, *args, **kwargs):
        counts.batched += len(equations)
        return batch(modulus, equations, *args, **kwargs)

    def counting_encode(*parts):
        block_counter = len(parts) == 1 and type(parts[0]) is int
        if not block_counter:
            counts.encodings += 1
        return encode(*parts)

    monkeypatch.setattr(VerifyKey, "verify", counting_verify)
    monkeypatch.setattr(GroupAccel, "exp", counting_exp)
    monkeypatch.setattr(schnorr, "verify_product_equations", counting_batch)
    monkeypatch.setattr(hashing, "encode", counting_encode)
    monkeypatch.setattr(threshold_sig, "encode", counting_encode)
    return counts


def test_each_round_verifies_and_encodes_exactly_this_much(counts):
    service = build_service(
        N, KeyValueStore, t=1, seed=SEED, scheduler=FifoScheduler(), group=default_group()
    )
    client = service.new_client()
    service.network.start()
    per_round = []
    for index in range(ROUNDS):
        before = counts.snapshot()
        nonce = client.submit(("set", "key", index))
        service.run_until_complete(client, [nonce])
        service.network.run()  # stragglers belong to this round
        per_round.append(
            tuple(after - b for after, b in zip(counts.snapshot(), before))
        )
    assert [replica.abc.round for replica in service.replicas.values()] == [ROUNDS] * N
    assert per_round == [
        (
            SINGLE_PER_ROUND,
            BATCHED_PER_ROUND,
            ENCODINGS_PER_ROUND,
        )
    ] * ROUNDS
