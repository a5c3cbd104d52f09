"""The packaged protocol-aware attacks, each defeated by design."""

import random

from helpers import ctx_for, make_network, run_until_outputs

from repro.core.atomic_broadcast import (
    AbcProposal,
    AtomicBroadcast,
    abc_session,
    batch_digest,
    proposal_statement,
)
from repro.core.binary_agreement import AbaCoinShare, BinaryAgreement, aba_session
from repro.core.consistent_broadcast import (
    CbcDelivery,
    CbcFinal,
    ConsistentBroadcast,
    cbc_session,
)
from repro.core.multivalued_agreement import MultiValuedAgreement, MvbaValue, mvba_session
from repro.core.reliable_broadcast import ReliableBroadcast, rbc_session
from repro.crypto.coin import CoinShare
from repro.crypto.threshold_sig import QuorumCertificate
from repro.net.adversary import SilentNode
from repro.net.scheduler import FifoScheduler, Scheduler
from repro.net.attacks import (
    CoinShareReplayer,
    DivergentAbcProposer,
    EquivocatingCbcSender,
    EquivocatingRbcSender,
    TwoFacedVoter,
)


def test_equivocating_rbc_sender_cannot_split_delivery(keys_4_1):
    for seed in range(4):
        net, rts = make_network(keys_4_1, seed=seed, parties=[1, 2, 3])
        session = rbc_session(0, ("atk", seed))
        net.attach(0, EquivocatingRbcSender(
            net, 0, session, "A", "B", camp_a=[1, 2], camp_b=[3]))
        for p, rt in rts.items():
            rt.spawn(session, ReliableBroadcast(0))
        net.run()
        delivered = {rts[p].result(session) for p in rts} - {None}
        assert len(delivered) <= 1, f"seed {seed}"


def test_equivocating_cbc_sender_cannot_split_delivery(keys_4_1):
    for seed in range(4):
        net, rts = make_network(keys_4_1, seed=seed + 10, parties=[1, 2, 3])
        session = cbc_session(0, ("atk", seed))
        net.attach(0, EquivocatingCbcSender(
            net, 0, session, "A", "B", camp_a=[1, 3], camp_b=[2]))
        for p, rt in rts.items():
            rt.spawn(session, ConsistentBroadcast(0))
        net.run()
        delivered = {
            rts[p].result(session).value
            for p in rts if rts[p].result(session) is not None
        }
        assert len(delivered) <= 1, f"seed {seed}"


def test_two_faced_voter_cannot_break_agreement(keys_4_1):
    for seed in range(4):
        net, rts = make_network(keys_4_1, seed=seed + 20, parties=[0, 1, 2])
        session = aba_session(("atk", seed))
        net.attach(3, TwoFacedVoter(net, 3, session))
        for p, rt in rts.items():
            rt.spawn(session, BinaryAgreement(p % 2))
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1, f"seed {seed}"


def test_coin_replayer_cannot_bias_the_coin(keys_4_1):
    net, rts = make_network(keys_4_1, seed=31, parties=[0, 1, 2])
    session = aba_session("replay")
    replayer = CoinShareReplayer(net, 3, session)
    net.attach(3, replayer)
    # Unanimous 0 cannot decide on round 1's constant coin, so the run
    # reaches round 2 and there are real coin shares to replay.
    for p, rt in rts.items():
        rt.spawn(session, BinaryAgreement(0))
    outputs = run_until_outputs(net, rts, session)
    assert set(outputs.values()) == {0}
    assert net.trace.counters["aba.coin_flips"] >= 1
    assert replayer.budget < 5  # it did replay
    # The replayer's forged shares were never accepted into any coin.
    for p, rt in rts.items():
        inst = rt.instances[session]
        for state in inst.rounds.values():
            assert 3 not in state.coin.valid


def test_malformed_coin_share_cannot_stall_the_vote(keys_4_1):
    """Party 3 sends, for rounds 2-4, a coin share that names itself and
    the coin correctly but whose values and proofs are integers — what
    the wire carries.  It is refused like any failed share: every honest
    party decides and 3 is banned from the coin it was checked against."""
    for seed in range(3):
        net, rts = make_network(keys_4_1, seed=50 + seed, parties=[0, 1, 2])
        session = aba_session(("malformed", seed))
        for r in (2, 3, 4):
            share = CoinShare(party=3, name=("aba-coin", session, r), values=5, proofs=5)
            net.broadcast(3, (session, AbaCoinShare(r, share)))
        for p, rt in rts.items():
            rt.spawn(session, BinaryAgreement(0))
        outputs = run_until_outputs(net, rts, session)
        assert outputs == {0: 0, 1: 0, 2: 0}, f"seed {seed}"
        assert net.trace.counters["aba.coin_flips"] >= 1
        for rt in rts.values():
            coin = rt.instances[session].rounds[2].coin
            assert 3 in coin.banned and 3 not in coin.valid


def test_divergent_abc_proposer_keeps_total_order(keys_4_1):
    net, rts = make_network(keys_4_1, seed=41, parties=[1, 2, 3])
    session = abc_session("atk")
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(session, AtomicBroadcast(
            on_deliver=lambda m, r, pp=p: logs[pp].append(m)))
    net.attach(0, DivergentAbcProposer(
        net, 0, session, keys_4_1.private[0],
        batches={1: (("evil", 1),), 2: (("evil", 2),), 3: ()},
    ))
    net.start()
    for p in rts:
        rts[p].instances[session].submit(ctx_for(rts[p], session), ("req", p))
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=900_000)
    net.run(max_steps=900_000)
    assert logs[1] == logs[2] == logs[3]


class _ForgedFirst(Scheduler):
    """Send order, except that party 3's ``CbcFinal`` for a broadcast
    waits until the genuine one is in flight to the same party, and then
    arrives right ahead of it."""

    @staticmethod
    def _final(env):
        session, message = env.payload
        return session if isinstance(message, CbcFinal) else None

    def select(self, pending, rng):
        for i, env in enumerate(pending):
            session = self._final(env)
            if session is None:
                return i
            if env.sender == 3:
                continue
            return next(
                (k for k, other in enumerate(pending)
                 if other.sender == 3 and other.recipient == env.recipient
                 and self._final(other) == session),
                i,
            )
        return None


def test_forged_finals_forwarded_first_cannot_stall_the_agreement(keys_4_1):
    """Party 3 forwards, for every honest sender's broadcast, a ``CbcFinal``
    carrying that sender's value under a certificate for another value,
    each one arriving right ahead of the genuine one.  A ``FINAL`` is
    held per (broadcast, network sender), so the forgery displaces
    nothing: every honest party delivers a quorum of broadcasts and
    decides, and 3 is banned."""
    net, rts = make_network(keys_4_1, _ForgedFirst(), seed=60, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = mvba_session("forged-finals")
    rng = random.Random(61)
    for s in rts:
        broadcast = cbc_session(s, session)
        other = ("cbc-commit", broadcast, ("proposal", "forged"))
        forged = QuorumCertificate({
            j: keys_4_1.private[j].cert_quorum.sign_share(other, rng) for j in rts
        })
        for p in rts:
            net.send(3, p, (broadcast, CbcFinal(("proposal", s), forged)))
    for p, rt in rts.items():
        rt.spawn(session, MultiValuedAgreement(("proposal", p)))
    outputs = run_until_outputs(net, rts, session)
    assert len(set(outputs.values())) == 1
    for rt in rts.values():
        inst = rt.instances[session]
        assert len(inst.deliveries) >= 3
        assert all(d.value == ("proposal", s) for s, d in inst.deliveries.items())
        # Banned where its forgery was checked before the genuine FINAL
        # delivered the broadcast; dropped unchecked where it was not.
        banned = {s for s in rts if (s, 3) in inst.finals.held}
        assert banned and all(inst.finals.held[(s, 3)] is None for s in banned)


def test_malformed_finals_forwarded_first_cannot_stall_the_agreement(keys_4_1):
    """Party 3 forwards, for every honest sender's broadcast, a ``CbcFinal``
    whose certificate the wire carries but no check can read — not a
    certificate, signatures that are not a dict, signers of mixed types —
    each one arriving right ahead of the genuine one.  It is refused like
    a forgery: the genuine ``FINAL``s held beside it are still delivered
    and every honest party decides."""
    rng = random.Random(66)
    signature = keys_4_1.private[0].cert_quorum.sign_share("anything", rng)
    for seed, certificate in enumerate([
        5,
        QuorumCertificate(signatures=5),
        QuorumCertificate({0: signature, "1": signature, 2: signature}),
    ]):
        net, rts = make_network(keys_4_1, _ForgedFirst(), seed=66 + seed, parties=[0, 1, 2])
        net.attach(3, SilentNode())
        session = mvba_session(("malformed-finals", seed))
        for s in rts:
            for p in rts:
                net.send(3, p, (cbc_session(s, session), CbcFinal(("proposal", s), certificate)))
        for p, rt in rts.items():
            rt.spawn(session, MultiValuedAgreement(("proposal", p)))
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1, f"seed {seed}"
        for rt in rts.values():
            inst = rt.instances[session]
            assert inst.perm_released and len(inst.deliveries) >= 3
            assert all(entry is None for (_s, j), entry in inst.finals.held.items() if j == 3)


def test_values_forwarded_ahead_of_the_finals_cannot_stall_the_permutation(keys_4_1):
    """Party 3 hands every honest party a valid ``MvbaValue`` for each
    honest broadcast before any ``CbcFinal`` arrives, so an honest
    party's deliveries are a quorum before its permutation share is out.
    Its held ``FINAL``s are still checked while the permutation waits for
    that quorum, the share still leaves, and every honest party decides."""
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=64, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = mvba_session("values-first")
    rng = random.Random(65)
    for s in rts:
        broadcast = cbc_session(s, session)
        statement = ("cbc-commit", broadcast, ("proposal", s))
        certificate = QuorumCertificate({
            j: keys_4_1.private[j].cert_quorum.sign_share(statement, rng) for j in rts
        })
        value = MvbaValue(s, CbcDelivery(s, ("proposal", s), certificate))
        for p in rts:
            net.send(3, p, (session, value))
    for p, rt in rts.items():
        rt.spawn(session, MultiValuedAgreement(("proposal", p)))
    outputs = run_until_outputs(net, rts, session)
    assert len(set(outputs.values())) == 1
    assert all(rt.instances[session].perm_released for rt in rts.values())


def test_unchecked_proposal_with_a_bad_signature_never_enters_a_list(keys_4_1):
    """Party 3's round-1 proposal arrives first everywhere, teaches
    nothing (an empty batch) and carries a bad signature.  It is recorded
    unchecked; at the quorum the check drops it and excludes 3 from the
    round, so no candidate list cites it and every honest party decides."""
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=62, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = abc_session("bad-quiet-proposal")
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(session, AtomicBroadcast(on_deliver=lambda m, r, pp=p: logs[pp].append(m)))
    net.start()
    signed_for_2 = keys_4_1.private[2].signing_key.sign(
        proposal_statement(session, 1, batch_digest(())), random.Random(63)
    )
    for p in rts:
        net.send(3, p, (session, AbcProposal(1, (), signed_for_2)))
    for p in rts:
        rts[p].instances[session].submit(ctx_for(rts[p], session), ("req", p))
    lists = ("mvba", (session, 1))
    net.run(until=lambda: all(lists in rt.instances for rt in rts.values()))
    for rt in rts.values():
        inst = rt.instances[session]
        assert 3 not in inst.rounds[1].proposals and inst.rounds[1].verdicts[3] is False
        assert 3 not in {j for j, _d, _s in rt.instances[lists].proposal}
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=400_000)
    assert logs[0] == logs[1] == logs[2]
