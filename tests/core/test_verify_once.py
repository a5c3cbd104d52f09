"""Exact-count guard: each signature is verified once per party — never
by the party that made it, never where no verdict is read — each
statement encoded once per hash, and a coin costs the exponentiations it
needs.

One deterministic in-process run — n = 4, t = 1, FIFO delivery, the
256-bit group (so a challenge is two SHA-256 blocks and re-encoding per
block would show), one operation per atomic-broadcast round — counted
through wrappers local to this file.  The numbers are the same every
round; a change that makes a layer re-check what the layer below it
already checked, or re-encode a statement per hash block, moves them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.crypto import accel, hashing, schnorr, threshold_sig, zkp
from repro.crypto.accel import FixedBaseTable, GroupAccel
from repro.crypto.coin import CoinPublic, CoinShareholder
from repro.crypto.groups import default_group
from repro.crypto.schnorr import VerifyKey
from repro.net.scheduler import FifoScheduler
from repro.smr.service import build_service
from repro.smr.state_machine import KeyValueStore

N = 4
T = 1
QUORUM = 3  # n - t
ROUNDS = 3

# Per round, signature equations that reach group arithmetic — every one
# of them made by *another* party; what the verifier signed itself is in
# its memo from the moment it signed (DESIGN.md: a party does not pay to
# verify what it produced):
#
# * one by one (``VerifyKey.verify``), at each of the 4 replicas:
#   the proposals that enter its candidate list, checked at the quorum —
#   under this schedule every replica records 0's, 1's and 2's first, so
#   that is 2 others' at replicas 0–2 and 3 at replica 3 (own proposal: a
#   memo hit); 3 echo shares of the consistent broadcast it sends less
#   its own where that is among the first three to arrive (own echo
#   share: 3 of the 4 senders under this schedule; the fourth share
#   arrives after the certificate is out and is ignored); at the client:
#   2 reply shares (t + 1 matching replies complete a request; later
#   replies are dropped unverified)
PROPOSALS_PER_ROUND = 3 * 2 + 3
SINGLE_PER_ROUND = PROPOSALS_PER_ROUND + (N * QUORUM - 3) + 2
# * in one batch (``verify_batch``) at each replica, when the broadcasts
#   held could be a quorum: the ``CbcFinal`` of broadcasts 0, 1 and 2, 3
#   signatures each, less the verifier's own echo share inside them —
#   at replicas 0–2 its own ``CbcFinal`` (every share a memo hit) and 2
#   of the other two's 6 shares; at replica 3 none of the 9.
FINAL_BATCHES_PER_ROUND = N
BATCHED_PER_ROUND = 3 * (2 * QUORUM - 2) + QUORUM * QUORUM
# 23 and 27 when every proposal and every ``CbcFinal`` was checked on
# arrival.  Both differences are replica 3's round: its proposal arrives
# fourth everywhere, enters no candidate list and teaches nobody a
# payload, so its signature is never checked (3 single checks at
# replicas 0–2); its ``CbcFinal`` arrives after the quorum and no vote
# reads it (the first candidate's vote decides), so it stays held,
# unchecked (its 3 shares less each verifier's own: 6 batched at
# replicas 0–2; 12 batches a round became 4).
# 30 and 36 before the memo was seeded; the difference is exactly the 4 +
# 3 + 9 items the verifier produced.  What reached no arithmetic before
# either: the 4 × 3 proposal signatures inside the candidate list of
# every ``CbcSend`` (accepted by comparison with the proposal recorded
# on arrival; a memo hit, named by a challenge hash, before that), and
# as memo hits the 3 shares again in ``combine``, the sender's own
# ``CbcFinal``, the certificate inside every ``MvbaValue``, and the
# client's 2 shares again when it combines them.  78 + 74 before that.

# Per coin (t + 1 = 2 shares open it; the counts per round are in
# ``test_each_coin_exponentiates_exactly_this_much``):
FRESH_POWS_PER_SHARE_SLOT = 2  # H(C)^x and the proof's H(C)^w; 3 before
LADDERS_PER_COIN = 1  # H(C)'s, built once in the process, shared by every party
FULL_SIZE_POWS_PER_SHARE = 0  # both pows climb the ladder; 2 built-in pows before
CHAINS_PER_COIN_CHECK = 1  # both sides of every equation on one; 2 before
DLEQ_ITEMS_PER_COIN = (T + 1) - 1  # where the verifier's own share is one of them

# Top-level encodings per round (one per hash evaluated or statement
# rendered, not counting the per-block counter): 62 Schnorr challenges
# in certificate batches and 30 single ones, 39 batch coefficients and
# their 16 seeds, 24 signatures made, 35 certificate statements
# (rendered once per certificate operation and spliced into each
# signer's challenge), 12 DLEQ challenges, 20 batch digests, 4 batch
# size estimates, 5 coin values and bases.  575 before: every
# challenge was one encoding per SHA-256 block.  Counted at the public
# ``hashing.encode`` (what ``hash_bytes`` and ``hash_to_int`` call, and
# the name ``threshold_sig`` imports for its statements); the count of
# nested values rendered, which needed the private recursive encoder,
# is gone with it.  The number did not move with the integer grammar;
# the dealing seed did (7 -> 13): coin values are hashes, so they moved,
# and under seed 7 the third round now loses its first coin flip and
# pays a second voting round (398 = 361 + 37).  361 -> 344 with the
# seeded memo, one source: batch coefficients, one per equation that
# drops out of a batch — 9 own echo shares in ``CbcFinal`` batches and
# 4 own coin shares at 2 equations each (68 -> 51); every challenge is
# still hashed (the memo key names it).  344 -> 295 with the vote's
# constant first coin and holders deciding at the vote's decision, two
# sources: the vote's coin is gone (33: its 4 values and 1 base, 4 proof
# and 8 check DLEQ challenges, 4 batch seeds and 12 coefficients), and
# no replica reads an ``MvbaValue`` any more — all four hold the
# delivery — whose certificate was a memo hit that still rendered 1
# statement and hashed 3 challenges to name it (16).  295 -> 247 with
# the list predicate comparing before it hashes, one source: the 4 × 4 ×
# 3 proposal signatures inside candidate lists (each replica reads 4
# ``CbcSend`` lists of 3 entries, every one equal to a proposal it
# recorded and verified on arrival) no longer hash a challenge only to
# name a memo hit — 48 single challenges, 78 -> 30.  247 -> 253 with
# one service signature per round over a hash tree of its answers, one
# source: leaf hashes.  This round's tree is one leaf (root = leaf, no
# node hashed): each of the 4 replicas hashes it once before signing,
# and the client hashes the leaf of each of the 2 replies it verifies,
# once, on arrival (6).  The signed statement is still one statement
# per signature made or checked, so nothing else moved.  253 -> 219 with
# checks made when their verdict is read, two sources: proposals, 16 ->
# 12 challenges (the fourth recorded at each replica, replica 3's, is
# never checked — a memo hit at replica 3 itself, which still hashed its
# challenge) (4); and ``CbcFinal`` certificates, one batch a replica at
# the quorum where each was checked on arrival — the held fourth one,
# broadcast 3's, renders no statement and hashes no challenge (4 + 12),
# batch seeds 12 -> 4 (8) and batch coefficients 27 -> 21 (6) (30).
ENCODINGS_PER_ROUND = 219

# Full-size exponentiations of ``g`` inside verification — what a check
# costs most of at production key sizes — per round: one per single check (its
# ``g^z``), one per batch (the merged ``g`` term) — the ``CbcFinal``
# batches and one coin check per replica.  39 when every proposal and
# ``CbcFinal`` was checked on arrival (12 + 9 + 2 single, 12 + 4 batches).
COIN_CHECKS_PER_ROUND = N
G_POWS_PER_ROUND = SINGLE_PER_ROUND + FINAL_BATCHES_PER_ROUND + COIN_CHECKS_PER_ROUND
SEED = 13


class _Counts:
    def __init__(self) -> None:
        self.single = 0
        self.batched = 0
        self.encodings = 0
        self.g_pows = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.single, self.batched, self.encodings, self.g_pows)


@pytest.fixture()
def counts(monkeypatch):
    counts = _Counts()
    verifying = [0]
    verify, exp, table_pow = VerifyKey.verify, GroupAccel.exp, FixedBaseTable.pow
    batch, encode = schnorr.verify_product_equations, hashing.encode
    dleq_batch = zkp.verify_product_equations
    g = accel.accel_for(default_group()).g

    def checking(check):
        def counted(*args, **kwargs):
            verifying[0] += 1
            try:
                return check(*args, **kwargs)
            finally:
                verifying[0] -= 1
        return counted

    def counting_exp(accel, base, exponent):
        # One per equation: h^c (g^z is the other exponentiation).
        if verifying[0] and base != accel.g:
            counts.single += 1
        return exp(accel, base, exponent)

    def counting_batch(modulus, equations, *args, **kwargs):
        counts.batched += len(equations)
        return checking(batch)(modulus, equations, *args, **kwargs)

    def counting_table_pow(table, exponent):
        # g is always tabled: every g^z of a check and every batch's
        # merged g term is one pow of its table.
        if verifying[0] and table.base == g and exponent.bit_length() > 128:
            counts.g_pows += 1
        return table_pow(table, exponent)

    def counting_encode(*parts):
        block_counter = len(parts) == 1 and type(parts[0]) is int
        if not block_counter:
            counts.encodings += 1
        return encode(*parts)

    monkeypatch.setattr(VerifyKey, "verify", checking(verify))
    monkeypatch.setattr(GroupAccel, "exp", counting_exp)
    monkeypatch.setattr(FixedBaseTable, "pow", counting_table_pow)
    monkeypatch.setattr(schnorr, "verify_product_equations", counting_batch)
    monkeypatch.setattr(zkp, "verify_product_equations", checking(dleq_batch))
    monkeypatch.setattr(hashing, "encode", counting_encode)
    monkeypatch.setattr(threshold_sig, "encode", counting_encode)
    return counts


def _service():
    return build_service(
        N, KeyValueStore, t=T, seed=SEED, scheduler=FifoScheduler(), group=default_group()
    )


def _run_rounds(service, snapshot):
    """Commit one operation per round; what ``snapshot()`` grew by in each."""
    client = service.new_client()
    service.network.start()
    per_round = []
    for index in range(ROUNDS):
        before = snapshot()
        nonce = client.submit(("set", "key", index))
        service.run_until_complete(client, [nonce])
        service.network.run()  # stragglers belong to this round
        per_round.append(tuple(after - b for after, b in zip(snapshot(), before)))
    assert [replica.abc.round for replica in service.replicas.values()] == [ROUNDS] * N
    return per_round


def test_each_round_verifies_and_encodes_exactly_this_much(counts):
    per_round = _run_rounds(_service(), counts.snapshot)
    assert per_round == [
        (
            SINGLE_PER_ROUND,
            BATCHED_PER_ROUND,
            ENCODINGS_PER_ROUND,
            G_POWS_PER_ROUND,
        )
    ] * ROUNDS


def test_each_coin_exponentiates_exactly_this_much(monkeypatch):
    tally = Counter()
    doing = []  # "share" inside share_for, "check" inside verify_shares
    share_for, verify_shares = CoinShareholder.share_for, CoinPublic.verify_shares
    exp, straus, product = GroupAccel.exp, accel._straus, zkp.verify_product_equations
    add_ladder = GroupAccel.add_ladder

    def counting_share_for(holder, name, rng, memo):
        tally["slots"] += len(holder.subshares)
        doing.append("share")
        try:
            return share_for(holder, name, rng, memo)
        finally:
            doing.pop()

    def counting_verify_shares(public, name, shares, memo):
        shares = list(shares)
        verifier = next(party for party, theirs in memos.items() if theirs is memo)
        own = any(share.party == verifier for share in shares)
        tally["checks"] += 1
        tally["checks_with_own_share"] += own
        tally["shares_checked"] += len(shares)
        doing.append("check")
        try:
            return verify_shares(public, name, shares, memo)
        finally:
            doing.pop()

    def counting_exp(group_accel, base, exponent):
        # The proof's g^w is the generator's table: not a fresh base.
        tally["fresh_pows"] += doing[-1:] == ["share"] and base != group_accel.g
        return exp(group_accel, base, exponent)

    def counting_add_ladder(group_accel, base):
        tally["ladders"] += base not in group_accel._ladders
        return add_ladder(group_accel, base)

    def counting_pow(base, exponent, modulus=None):
        # The built-in, as crypto/accel.py calls it: a full-size exponent
        # is a whole squaring chain.
        tally["full_size_pows"] += doing[-1:] == ["share"] and exponent.bit_length() > 128
        return pow(base, exponent, modulus)

    def counting_straus(modulus, pairs):
        tally["chains"] += doing[-1:] == ["check"]
        return straus(modulus, pairs)

    def counting_product(modulus, equations, *args, **kwargs):
        tally["dleq_items"] += len(equations) // 2  # two equations per proof
        return product(modulus, equations, *args, **kwargs)

    monkeypatch.setattr(CoinShareholder, "share_for", counting_share_for)
    monkeypatch.setattr(CoinPublic, "verify_shares", counting_verify_shares)
    monkeypatch.setattr(GroupAccel, "exp", counting_exp)
    monkeypatch.setattr(GroupAccel, "add_ladder", counting_add_ladder)
    monkeypatch.setattr(accel, "pow", counting_pow, raising=False)
    monkeypatch.setattr(accel, "_straus", counting_straus)
    monkeypatch.setattr(zkp, "verify_product_equations", counting_product)
    # The accelerator lives as long as the process: forget the ladders an
    # earlier run of this same service (same coin names) left behind.
    accel.accel_for(default_group())._ladders.clear()
    service = _service()
    memos = {party: runtime.verified for party, runtime in service.runtimes.items()}
    keys = (
        "slots", "fresh_pows", "ladders", "full_size_pows", "checks", "chains",
        "shares_checked", "checks_with_own_share", "dleq_items",
    )
    per_round = _run_rounds(service, lambda: tuple(tally[key] for key in keys))
    # Each replica releases one coin share a round (the permutation
    # coin's, one slot; the vote decides in its first round, whose coin
    # is the constant 1 — 2 * N before that) and opens the coin with the
    # first t + 1 = 2 shares to arrive; under this schedule its own is
    # one of the two in half of the checks (where it is not, it arrives
    # after the coin is open and is dropped unverified).  The simulated
    # replicas share one accelerator, so the coin's base gets one ladder
    # a round; a TCP replica builds its own.
    slots = checks = N
    with_own = checks // 2
    assert per_round == [
        (
            slots,
            slots * FRESH_POWS_PER_SHARE_SLOT,
            LADDERS_PER_COIN,
            slots * FULL_SIZE_POWS_PER_SHARE,
            checks,
            checks * CHAINS_PER_COIN_CHECK,
            checks * (T + 1),
            with_own,
            with_own * DLEQ_ITEMS_PER_COIN + (checks - with_own) * (T + 1),
        )
    ] * ROUNDS


def test_a_round_of_answers_is_signed_once_per_replica(monkeypatch):
    """k = 8 requests from two clients ride one round.  Each replica makes
    one service-signature share for the round's answers — n in all,
    where one share per answer made n·k = 32 — and each client's reply
    checks that reach arithmetic are t + 1 = 2, one per replica whose
    replies complete its requests (a later reply under the same tree is
    a memo hit), where one per reply made 2 per request: 8 a client."""
    made = Counter()
    checked = Counter()  # id of the verifying party's memo -> checks
    verifying = []
    sign_share = threshold_sig.QuorumCertShareholder.sign_share
    verify, exp = VerifyKey.verify, GroupAccel.exp
    service = _service()
    signers = [service.keys.private[party].service_signer for party in range(N)]

    def counting_sign_share(holder, *args, **kwargs):
        made["service"] += any(holder is signer for signer in signers)
        return sign_share(holder, *args, **kwargs)

    def counting_verify(key, message, signature, memo=None):
        verifying.append(memo)
        try:
            return verify(key, message, signature, memo)
        finally:
            verifying.pop()

    def counting_exp(accel, base, exponent):
        if verifying and base != accel.g:  # h^c: one per check
            checked[id(verifying[-1])] += 1
        return exp(accel, base, exponent)

    monkeypatch.setattr(threshold_sig.QuorumCertShareholder, "sign_share", counting_sign_share)
    monkeypatch.setattr(VerifyKey, "verify", counting_verify)
    monkeypatch.setattr(GroupAccel, "exp", counting_exp)
    opener, *clients = (service.new_client() for _ in range(3))
    service.network.start()
    # The opener's request starts round 1; the eight sent behind it
    # queue until round 1 delivers and then ride round 2 together.
    opener.submit(("set", "opener", 0))
    nonces = {
        client: [client.submit(("set", f"key-{client.client_id}-{i}", i)) for i in range(4)]
        for client in clients
    }
    replicas = list(service.replicas.values())
    service.network.run(until=lambda: all(replica.abc.round == 1 for replica in replicas))
    made.clear()
    for client in clients:
        service.run_until_complete(client, nonces[client])
    service.network.run()  # stragglers belong to this round
    assert [(replica.abc.round, len(replica.executed)) for replica in replicas] == [(2, 9)] * N
    assert made["service"] == N
    assert [checked[id(client.verified)] for client in clients] == [T + 1] * 2
