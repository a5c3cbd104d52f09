"""Randomized binary Byzantine agreement: validity, agreement,
termination — under benign and adversarial schedules and corruptions."""

import pytest

from helpers import make_network, record_sends, run_until_outputs

from repro.core.binary_agreement import (
    AbaBval,
    AbaConf,
    AbaCoinShare,
    AbaDone,
    BinaryAgreement,
    aba_session,
)
from repro.crypto.coin import CoinPublic
from repro.net.adversary import SilentNode, SpamNode
from repro.net.scheduler import (
    DelayScheduler,
    FifoScheduler,
    RandomScheduler,
    ReorderScheduler,
)

import random


def _spawn(runtimes, session, proposals):
    for party, runtime in runtimes.items():
        runtime.spawn(session, BinaryAgreement(proposals[party]))


@pytest.fixture()
def coin_checks(monkeypatch):
    """The names of the coins whose shares reached (DLEQ) verification."""
    checks, verify_shares = [], CoinPublic.verify_shares

    def counting(public, name, shares, memo=None):
        checks.append(name)
        return verify_shares(public, name, shares, memo)

    monkeypatch.setattr(CoinPublic, "verify_shares", counting)
    return checks


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_proposals_decide_that_value(self, keys_4_1, value):
        for seed in range(3):
            net, rts = make_network(keys_4_1, seed=seed)
            session = aba_session(("unanimous", value, seed))
            _spawn(rts, session, {p: value for p in rts})
            outputs = run_until_outputs(net, rts, session)
            assert all(v == value for v in outputs.values())

    def test_unanimous_with_silent_corruption(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=4, parties=[0, 1, 2])
        net.attach(3, SilentNode())
        session = aba_session("silent")
        _spawn(rts, session, {p: 1 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert all(v == 1 for v in outputs.values())

    def test_decided_value_was_proposed_by_honest_party(self, keys_4_1):
        """With mixed proposals the decision is one of them (here both
        values are proposed, so this checks the output is a valid bit
        and agreement holds)."""
        for seed in range(4):
            net, rts = make_network(keys_4_1, seed=seed + 10)
            session = aba_session(("mixed", seed))
            _spawn(rts, session, {0: 0, 1: 1, 2: 0, 3: 1})
            outputs = run_until_outputs(net, rts, session)
            assert len(set(outputs.values())) == 1
            assert outputs[0] in (0, 1)


class TestFirstCoin:
    """The vote is biased toward 1: round 1's coin is the constant 1,
    rounds >= 2 open real coins."""

    @pytest.mark.parametrize(
        "scheduler", [FifoScheduler, RandomScheduler, ReorderScheduler]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_unanimous_one_decides_in_round_one_without_a_coin(
        self, keys_4_1, coin_checks, scheduler, seed
    ):
        net, rts = make_network(keys_4_1, scheduler(), seed=seed)
        sent = record_sends(net)
        session = aba_session(("first-coin", 1, seed))
        _spawn(rts, session, {p: 1 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        net.run()  # to quiescence: the later rounds' chatter too
        assert all(v == 1 for v in outputs.values())
        assert not any(isinstance(m, AbaCoinShare) for m in sent)
        assert coin_checks == []
        assert net.trace.counters["aba.coin_flips"] == 0

    @pytest.mark.parametrize(
        "scheduler", [FifoScheduler, RandomScheduler, ReorderScheduler]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_unanimous_zero_decides_zero_on_a_real_coin(
        self, keys_4_1, coin_checks, scheduler, seed
    ):
        net, rts = make_network(keys_4_1, scheduler(), seed=seed)
        sent = record_sends(net)
        session = aba_session(("first-coin", 0, seed))
        flips_at_decision = []
        for runtime in rts.values():
            runtime.spawn(
                session,
                BinaryAgreement(0),
                on_output=lambda bit: flips_at_decision.append(
                    net.trace.counters["aba.coin_flips"]
                ),
            )
        outputs = run_until_outputs(net, rts, session)
        net.run()
        assert all(v == 0 for v in outputs.values())  # validity
        # Round 1's coin is 1, so nobody decides 0 there: a real coin
        # was open before the first decision, and only rounds >= 2's.
        assert min(flips_at_decision) >= 1
        coin_rounds = {m.round for m in sent if isinstance(m, AbaCoinShare)}
        assert coin_rounds and min(coin_rounds) >= 2
        assert {name[:2] for name in coin_checks} == {("aba-coin", session)}
        assert all(name[2] >= 2 for name in coin_checks)

    def test_round_one_coin_share_is_dropped_unread(self, keys_4_1, coin_checks):
        """Round 1 has no coin, so a Byzantine share of one — valid,
        forged or garbage — reaches no arithmetic and leaves no state."""
        net, rts = make_network(keys_4_1, seed=61, parties=[0])
        session = aba_session("no-first-coin")
        inst = rts[0].spawn(session, BinaryAgreement(1))
        holder, rng = keys_4_1.private[3].coin, random.Random(62)
        valid = holder.share_for(("aba-coin", session, 1), rng)
        forged = holder.share_for(("aba-coin", session, 2), rng)
        for share in (valid, forged, "garbage"):
            rts[0].on_message(3, (session, AbaCoinShare(1, share)))
        screen = inst.rounds[1].coin
        assert not (screen.pending or screen.valid or screen.banned or screen.opened)
        assert inst.rounds[1].coin_value == 1 and coin_checks == []
        # The same sender's share of a real coin is held as before.
        rts[0].on_message(3, (session, AbaCoinShare(2, forged)))
        assert inst.rounds[2].coin.pending == {3: forged}


class TestAgreement:
    @pytest.mark.parametrize(
        "scheduler", [FifoScheduler, RandomScheduler, ReorderScheduler]
    )
    def test_agreement_across_schedulers(self, keys_4_1, scheduler):
        net, rts = make_network(keys_4_1, scheduler(), seed=7)
        session = aba_session(("sched", scheduler.__name__))
        _spawn(rts, session, {0: 1, 1: 0, 2: 1, 3: 0})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1

    def test_agreement_under_targeted_delay(self, keys_4_1):
        net, rts = make_network(keys_4_1, DelayScheduler({0}), seed=8)
        session = aba_session("delayed")
        _spawn(rts, session, {0: 1, 1: 0, 2: 1, 3: 0})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1

    def test_agreement_with_seven_parties(self, keys_7_2):
        net, rts = make_network(keys_7_2, seed=9)
        session = aba_session("seven")
        _spawn(rts, session, {p: p % 2 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1

    def test_agreement_with_two_silent_of_seven(self, keys_7_2):
        net, rts = make_network(keys_7_2, seed=10, parties=[0, 1, 2, 3, 4])
        for bad in (5, 6):
            net.attach(bad, SilentNode())
        session = aba_session("seven-silent")
        _spawn(rts, session, {p: p % 2 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1


class TestByzantine:
    def test_byzantine_voter_cannot_break_agreement(self, keys_4_1):
        """Party 3 sends conflicting BVAL/AUX/CONF and junk coin shares."""
        for seed in range(4):
            net, rts = make_network(keys_4_1, seed=seed + 20, parties=[0, 1, 2])
            session = aba_session(("byz", seed))

            class TwoFaced(SilentNode):
                def __init__(self):
                    self.fired = False

                def on_message(self, inner_sender, payload):
                    if self.fired:
                        return
                    self.fired = True
                    for r in (1, 2):
                        for v in (0, 1):
                            net.broadcast(3, (session, AbaBval(r, v)))
                        net.broadcast(3, (session, AbaConf(r, frozenset({0, 1}))))
                    net.broadcast(3, (session, AbaDone(0)))
                    net.broadcast(3, (session, AbaDone(1)))

            net.attach(3, TwoFaced())
            _spawn(rts, session, {0: 0, 1: 1, 2: 0})
            outputs = run_until_outputs(net, rts, session)
            assert len(set(outputs.values())) == 1, f"seed {seed}"

    def test_forged_coin_shares_rejected(self, keys_4_1):
        """A corrupted party replaying another party's coin share (or
        garbage) must not corrupt the coin."""
        net, rts = make_network(keys_4_1, seed=30, parties=[0, 1, 2])
        session = aba_session("forged-coin")

        class CoinForger(SilentNode):
            def __init__(self):
                self.done = False

            def on_message(self, sender, payload):
                if self.done or not isinstance(payload, tuple):
                    return
                sess, msg = payload
                if isinstance(msg, AbaCoinShare):
                    self.done = True
                    # replay someone else's share under our identity
                    net.broadcast(3, (session, msg))

        net.attach(3, CoinForger())
        # Unanimous 0 cannot decide on round 1's constant coin, so the
        # run reaches round 2 and there is a real coin to forge.
        _spawn(rts, session, {0: 0, 1: 0, 2: 0})
        outputs = run_until_outputs(net, rts, session)
        assert set(outputs.values()) == {0}
        assert net.trace.counters["aba.coin_flips"] >= 1
        assert net.nodes[3].done
        for rt in rts.values():
            for state in rt.instances[session].rounds.values():
                assert 3 not in state.coin.valid

    def test_spam_does_not_block(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=31, parties=[0, 1, 2])
        net.attach(
            3,
            SpamNode(
                net,
                3,
                payload_factory=lambda rng: (session_holder[0], AbaBval(rng.randrange(3) + 1, 2)),
                rng=random.Random(32),
                fanout=1,
            ),
        )
        session = aba_session("spam")
        session_holder = [session]
        _spawn(rts, session, {0: 1, 1: 1, 2: 1})
        outputs = run_until_outputs(net, rts, session)
        assert all(v == 1 for v in outputs.values())


class TestTermination:
    def test_rounds_are_bounded_in_practice(self, keys_4_1):
        """Expected constant rounds: over 10 adversarially scheduled
        runs, every run finishes within a small number of coin flips."""
        for seed in range(10):
            net, rts = make_network(keys_4_1, ReorderScheduler(), seed=seed + 40)
            session = aba_session(("rounds", seed))
            _spawn(rts, session, {0: 0, 1: 1, 2: 1, 3: 0})
            run_until_outputs(net, rts, session)
            flips = net.trace.counters.get("aba.coin_flips", 0)
            assert flips <= 40  # 4 parties x <= 10 rounds

    def test_instances_halt_after_decision(self, keys_4_1):
        """The DONE gadget stops the protocol: after everyone decided,
        the network drains to quiescence (no infinite round chatter)."""
        net, rts = make_network(keys_4_1, seed=50)
        session = aba_session("halt")
        _spawn(rts, session, {p: 1 for p in rts})
        run_until_outputs(net, rts, session)
        net.run(max_steps=100_000)  # must reach quiescence
        assert all(rts[p].instances[session].halted for p in rts)

    def test_generalized_structure_agreement(self, keys_example1):
        """Example 1 structure: whole class a silent (4 of 9)."""
        honest = [4, 5, 6, 7, 8]
        net, rts = make_network(keys_example1, seed=51, parties=honest)
        for bad in (0, 1, 2, 3):
            net.attach(bad, SilentNode())
        session = aba_session("gen")
        _spawn(rts, session, {p: p % 2 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1


class TestInputValidation:
    def test_bad_proposal_rejected(self):
        with pytest.raises(ValueError):
            BinaryAgreement(2)

    def test_far_future_rounds_ignored(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=60, parties=[0])
        session = aba_session("future")
        inst = rts[0].spawn(session, BinaryAgreement(1))
        net.send(1, 0, (session, AbaBval(999, 1)))
        net.run(max_steps=10)
        assert 999 not in inst.rounds
