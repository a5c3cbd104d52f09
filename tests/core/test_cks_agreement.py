"""CKS-style binary agreement with explicit certificate justifications."""

import pytest

from helpers import make_network, record_sends, run_until_outputs

from repro.core.cks_agreement import (
    ABSTAIN,
    CksBinaryAgreement,
    CksCoinShare,
    CksMainVote,
    CksPreVote,
    cks_session,
)
from repro.crypto.schnorr import Signature
from repro.net.adversary import SilentNode
from repro.net.scheduler import DelayScheduler, RandomScheduler, ReorderScheduler


def _spawn(rts, session, proposals):
    for p, rt in rts.items():
        rt.spawn(session, CksBinaryAgreement(proposals[p]))


class TestValidityAndAgreement:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_decides_that_value(self, keys_4_1, value):
        net, rts = make_network(keys_4_1, seed=value)
        session = cks_session(("u", value))
        _spawn(rts, session, {p: value for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert set(outputs.values()) == {value}

    def test_unanimous_with_silent_corruption(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=2, parties=[0, 1, 2])
        net.attach(3, SilentNode())
        session = cks_session("silent")
        _spawn(rts, session, {p: 1 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert set(outputs.values()) == {1}

    @pytest.mark.parametrize(
        "scheduler", [RandomScheduler, ReorderScheduler]
    )
    def test_split_inputs_agree(self, keys_4_1, scheduler):
        net, rts = make_network(keys_4_1, scheduler(), seed=3)
        session = cks_session(("split", scheduler.__name__))
        _spawn(rts, session, {p: p % 2 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1
        assert outputs[0] in (0, 1)

    def test_round_one_opens_no_coin(self, keys_4_1):
        """The first coin is the constant 1 (CKS's bias): split inputs
        run past round 1 and only rounds >= 2 release shares."""
        for seed in range(4):
            net, rts = make_network(keys_4_1, ReorderScheduler(), seed=40 + seed)
            sent = record_sends(net)
            session = cks_session(("first-coin", seed))
            _spawn(rts, session, {p: p % 2 for p in rts})
            outputs = run_until_outputs(net, rts, session)
            assert len(set(outputs.values())) == 1
            coin_rounds = {m.round for m in sent if isinstance(m, CksCoinShare)}
            assert coin_rounds and 1 not in coin_rounds
            for rt in rts.values():
                state = rt.instances[session]._state(1)
                assert state.coin_value == 1 and not state.coin.opened

    def test_agreement_under_targeted_delay(self, keys_4_1):
        net, rts = make_network(keys_4_1, DelayScheduler({1}), seed=4)
        session = cks_session("delay")
        _spawn(rts, session, {0: 1, 1: 0, 2: 1, 3: 0})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1

    def test_seven_parties_two_silent(self, keys_7_2):
        net, rts = make_network(keys_7_2, seed=5, parties=[0, 1, 2, 3, 4])
        for bad in (5, 6):
            net.attach(bad, SilentNode())
        session = cks_session("seven")
        _spawn(rts, session, {p: p % 2 for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len(set(outputs.values())) == 1

    def test_repeated_runs_terminate_quickly(self, keys_4_1):
        for seed in range(6):
            net, rts = make_network(keys_4_1, ReorderScheduler(), seed=10 + seed)
            session = cks_session(("rounds", seed))
            _spawn(rts, session, {p: p % 2 for p in rts})
            run_until_outputs(net, rts, session)
            max_round = max(rt.instances[session].round for rt in rts.values())
            assert max_round <= 10


class TestJustifications:
    def test_unjustified_later_round_prevote_rejected(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=20, parties=[1])
        session = cks_session("unjust")
        inst = rts[1].spawn(session, CksBinaryAgreement(1))
        bogus = CksPreVote(2, 0, None, Signature(commit=1, response=1))
        net.send(0, 1, (session, bogus))
        net.run(max_steps=100)
        assert 0 not in inst._state(2).prevotes

    def test_prevote_with_forged_share_rejected(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=21, parties=[1])
        session = cks_session("forged")
        inst = rts[1].spawn(session, CksBinaryAgreement(1))
        bogus = CksPreVote(1, 0, None, Signature(commit=1, response=1))
        net.send(0, 1, (session, bogus))
        net.run(max_steps=100)
        assert 0 not in inst._state(1).prevotes

    def test_mainvote_without_certificate_rejected(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=22, parties=[1])
        session = cks_session("nocert")
        inst = rts[1].spawn(session, CksBinaryAgreement(1))
        bogus = CksMainVote(1, 0, ("cert", "not-a-cert"),
                            Signature(commit=1, response=1))
        net.send(2, 1, (session, bogus))
        bogus2 = CksMainVote(1, ABSTAIN, ("conflict", "x", "y"),
                             Signature(commit=1, response=1))
        net.send(3, 1, (session, bogus2))
        net.run(max_steps=100)
        assert inst._state(1).mainvotes == {}

    def test_abstain_requires_genuinely_conflicting_prevotes(self, keys_4_1):
        """An abstain justified by two pre-votes for the same value (or
        wrong rounds) is rejected."""
        net, rts = make_network(keys_4_1, seed=23)
        session = cks_session("conflict")
        _spawn(rts, session, {p: 1 for p in rts})
        net.run(
            until=lambda: all(rt.result(session) is not None for rt in rts.values()),
            max_steps=400_000,
        )
        # Grab two real (justified) prevotes for 1 from the transcript.
        inst = rts[0].instances[session]
        prevotes = list(inst._state(1).prevotes.values())
        same = CksMainVote(
            1, ABSTAIN, ("conflict", prevotes[0], prevotes[1]),
            Signature(commit=1, response=1),
        )
        fresh_net, fresh_rts = make_network(keys_4_1, seed=24, parties=[2])
        fresh = fresh_rts[2].spawn(session, CksBinaryAgreement(1))
        fresh_net.send(0, 2, (session, same))
        fresh_net.run(max_steps=100)
        assert fresh._state(1).mainvotes == {}


class TestHalting:
    def test_instances_halt_and_network_drains(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=30)
        session = cks_session("halt")
        _spawn(rts, session, {p: 1 for p in rts})
        run_until_outputs(net, rts, session)
        net.run(max_steps=200_000)
        assert all(rts[p].instances[session].halted for p in rts)
