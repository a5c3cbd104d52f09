"""The packaged protocol-aware attacks, each defeated by design."""

from helpers import ctx_for, make_network, run_until_outputs

from repro.core.atomic_broadcast import AtomicBroadcast, abc_session
from repro.core.binary_agreement import AbaCoinShare, BinaryAgreement, aba_session
from repro.core.consistent_broadcast import ConsistentBroadcast, cbc_session
from repro.core.reliable_broadcast import ReliableBroadcast, rbc_session
from repro.crypto.coin import CoinShare
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
