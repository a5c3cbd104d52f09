"""Multi-valued Byzantine agreement with external validity."""

import pytest

from helpers import make_network, run_until_outputs

from repro.core.consistent_broadcast import CbcDelivery, CbcFinal
from repro.core.multivalued_agreement import (
    MultiValuedAgreement,
    MvbaDecision,
    MvbaValue,
    mvba_session,
)
from repro.net.adversary import SilentNode
from repro.net.scheduler import (
    DelayScheduler,
    FifoScheduler,
    RandomScheduler,
    ReorderScheduler,
    Scheduler,
)


def _spawn(runtimes, session, proposals, predicate=None):
    for party, runtime in runtimes.items():
        runtime.spawn(
            session, MultiValuedAgreement(proposals[party], predicate=predicate)
        )


def _valid(v):
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "proposal"


class TestAgreementAndValidity:
    @pytest.mark.parametrize(
        "scheduler", [RandomScheduler, ReorderScheduler]
    )
    def test_all_decide_same_proposed_value(self, keys_4_1, scheduler):
        net, rts = make_network(keys_4_1, scheduler(), seed=1)
        session = mvba_session(("basic", scheduler.__name__))
        proposals = {p: ("proposal", p) for p in rts}
        _spawn(rts, session, proposals, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        decisions = {(d.proposer, d.value) for d in outputs.values()}
        assert len(decisions) == 1
        proposer, value = decisions.pop()
        assert value == ("proposal", proposer)

    def test_decision_satisfies_external_predicate(self, keys_4_1):
        for seed in range(3):
            net, rts = make_network(keys_4_1, seed=seed + 5)
            session = mvba_session(("pred", seed))
            _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
            outputs = run_until_outputs(net, rts, session)
            assert all(_valid(d.value) for d in outputs.values())

    def test_invalid_proposal_never_decided(self, keys_4_1):
        """Party 0 proposes garbage; the predicate blocks certification,
        so the decision must come from one of the others."""
        net, rts = make_network(keys_4_1, seed=9)
        session = mvba_session("invalid")
        proposals = {0: ("garbage!",), 1: ("proposal", 1), 2: ("proposal", 2),
                     3: ("proposal", 3)}
        _spawn(rts, session, proposals, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        for d in outputs.values():
            assert d.proposer != 0
            assert _valid(d.value)

    def test_identical_proposals(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=10)
        session = mvba_session("same")
        _spawn(rts, session, {p: ("proposal", 42) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        assert all(d.value == ("proposal", 42) for d in outputs.values())


class TestFaultTolerance:
    def test_silent_party(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=11, parties=[0, 1, 2])
        net.attach(3, SilentNode())
        session = mvba_session("silent")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        decisions = {(d.proposer, d.value) for d in outputs.values()}
        assert len(decisions) == 1
        # A silent party's proposal cannot win (it never broadcast it).
        assert decisions.pop()[0] != 3

    def test_delayed_party_still_agrees(self, keys_4_1):
        net, rts = make_network(keys_4_1, DelayScheduler({2}), seed=12)
        session = mvba_session("delayed")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        assert len({(d.proposer, d.value) for d in outputs.values()}) == 1

    def test_seven_parties_two_silent(self, keys_7_2):
        net, rts = make_network(keys_7_2, seed=13, parties=[0, 1, 2, 3, 4])
        for bad in (5, 6):
            net.attach(bad, SilentNode())
        session = mvba_session("seven")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        assert len({(d.proposer, d.value) for d in outputs.values()}) == 1

    def test_generalized_structure(self, keys_example1):
        honest = [4, 5, 6, 7, 8]
        net, rts = make_network(keys_example1, seed=14, parties=honest)
        for bad in (0, 1, 2, 3):
            net.attach(bad, SilentNode())
        session = mvba_session("gen")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        decisions = {(d.proposer, d.value) for d in outputs.values()}
        assert len(decisions) == 1
        assert decisions.pop()[0] in honest


class Withhold(Scheduler):
    """Send order, except that envelopes ``held`` matches stay pending."""

    def __init__(self, held):
        self.held = held

    def select(self, pending, rng):
        return next((i for i, env in enumerate(pending) if not self.held(env)), None)


class TestDecisionStep:
    """Who holds the winning candidate's delivery decides when its vote
    decides 1; who does not decides on a checked ``MvbaValue``."""

    def test_holder_decides_in_the_step_its_vote_decides(self, keys_4_1):
        net, rts = make_network(keys_4_1, FifoScheduler(), seed=17)
        session = mvba_session("holder")
        first_vote = ("aba", (session, 0))
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        net.start()
        while net.step():
            for rt in rts.values():
                assert (rt.result(first_vote) == 1) == (rt.result(session) is not None)
        assert all(rt.result(session) is not None for rt in rts.values())

    def test_party_without_the_delivery_waits_for_a_valid_value(self, keys_4_1):
        """Party 3 never sees a ``CbcFinal``: it votes 0, the others'
        three 1s bind the vote to 1, and it must be shown the value."""

        def to_party_3(*kinds):
            return lambda env: env.recipient == 3 and isinstance(env.payload[1], kinds)

        scheduler = Withhold(to_party_3(CbcFinal, MvbaValue))
        net, rts = make_network(keys_4_1, scheduler, seed=18)
        session = mvba_session("lacking")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        net.run()
        decisions = {rts[p].result(session) for p in (0, 1, 2)}
        assert len(decisions) == 1 and None not in decisions
        winner = decisions.pop()
        assert rts[3].result(("aba", (session, 0))) == 1
        assert rts[3].result(session) is None

        # A certificate for another value does not make this one decided.
        real = rts[0].instances[session].deliveries[winner.proposer]
        forged = CbcDelivery(winner.proposer, ("proposal", "FORGED"), real.certificate)
        rts[3].on_message(0, (session, MvbaValue(winner.proposer, forged)))
        assert rts[3].result(session) is None

        scheduler.held = to_party_3(CbcFinal)
        net.run()
        assert rts[3].result(session) == winner
        # ... which it knows from the MvbaValue alone.
        assert set(rts[3].instances[session].deliveries) == {winner.proposer}


class TestDecisionShape:
    def test_output_type(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=15)
        session = mvba_session("shape")
        _spawn(rts, session, {p: ("proposal", p) for p in rts}, predicate=_valid)
        outputs = run_until_outputs(net, rts, session)
        for d in outputs.values():
            assert isinstance(d, MvbaDecision)
            assert 0 <= d.proposer < 4

    def test_no_predicate_accepts_anything(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=16)
        session = mvba_session("nopred")
        _spawn(rts, session, {p: ("anything", p) for p in rts})
        outputs = run_until_outputs(net, rts, session)
        assert len({d.value for d in outputs.values()}) == 1
