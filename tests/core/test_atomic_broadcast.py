"""Atomic broadcast: total order, dedup, batching, pipelining, liveness."""

import collections
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from helpers import ctx_for, make_network

from repro.core import atomic_broadcast
from repro.core.atomic_broadcast import (
    AbcBatch,
    AbcBatchRequest,
    AbcConfig,
    AbcProposal,
    AtomicBroadcast,
    abc_session,
    batch_digest,
    payload_digest,
    proposal_statement,
)
from repro.core.binary_agreement import AbaBval, AbaDone
from repro.core.consistent_broadcast import CbcFinal
from repro.core.multivalued_agreement import MvbaDecision, MvbaValue
from repro.core.runtime import ProtocolRuntime
from repro.crypto import deal_system, small_group
from repro.crypto.dealer import CLIENT_BASE
from repro.crypto.schnorr import Signature
from repro.crypto.threshold_sig import QuorumCertificate
from repro.net.adversary import MutatingNode, SilentNode
from repro.net.scheduler import (
    DelayScheduler,
    FifoScheduler,
    RandomScheduler,
    ReorderScheduler,
)
from repro.net.simulator import Node
from repro.smr import KeyValueStore, build_service
from repro.smr.replica import Replica, service_session


def _spawn(runtimes, session, config=None):
    logs = {}
    for party, runtime in runtimes.items():
        logs[party] = []
        runtime.spawn(
            session,
            AtomicBroadcast(
                on_deliver=lambda m, r, p=party: logs[p].append(m),
                config=config,
            ),
        )
    return logs


def _submit(runtimes, session, party, payload):
    inst = runtimes[party].instances[session]
    inst.submit(ctx_for(runtimes[party], session), payload)


def _recorded(inst, r):
    """The proposals ``inst`` recorded for round ``r``."""
    return inst.rounds[r].proposals if r in inst.rounds else {}


def _held(inst):
    """Every digest whose batch ``inst`` holds, in any round."""
    return {digest for rec in inst.rounds.values() for digest in rec.batches}


def _pending(inst):
    """Rounds decided but not yet delivered."""
    return [r for r, rec in inst.rounds.items() if r > inst.round and rec.decision]


def _end_turn(ctx):
    """End the caller's own turn on ``ctx``'s network: what its calls
    deferred (a submission's round opening) runs now."""
    ctx._runtime.network.end_turns()


@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_total_order_identical_at_all_parties(keys_4_1, scheduler):
    net, rts = make_network(keys_4_1, scheduler(), seed=1)
    session = abc_session(("order", scheduler.__name__))
    logs = _spawn(rts, session)
    net.start()
    for p in rts:
        _submit(rts, session, p, ("req", p))
    net.run(until=lambda: all(len(logs[p]) >= 4 for p in rts), max_steps=400_000)
    assert all(logs[p] == logs[0] for p in rts)
    assert set(logs[0]) == {("req", p) for p in rts}


def test_duplicate_submissions_delivered_once(keys_4_1):
    net, rts = make_network(keys_4_1, seed=2)
    session = abc_session("dedup")
    logs = _spawn(rts, session)
    net.start()
    # Same payload submitted at every server (a client broadcast).
    for p in rts:
        _submit(rts, session, p, ("req", "shared"))
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    net.run(max_steps=400_000)  # drain
    assert all(logs[p] == [("req", "shared")] for p in rts)


def test_idle_parties_join_rounds(keys_4_1):
    """Only one server has input; the rest must join with empty batches."""
    net, rts = make_network(keys_4_1, seed=3)
    session = abc_session("idle")
    logs = _spawn(rts, session)
    net.start()
    _submit(rts, session, 0, ("req", "solo"))
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    assert all(logs[p] == [("req", "solo")] for p in rts)


def test_multiple_rounds_sequential_payloads(keys_4_1):
    net, rts = make_network(keys_4_1, seed=4)
    session = abc_session("rounds")
    logs = _spawn(rts, session)
    net.start()
    _submit(rts, session, 0, ("req", 1))
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    _submit(rts, session, 1, ("req", 2))
    net.run(until=lambda: all(len(logs[p]) >= 2 for p in rts), max_steps=400_000)
    assert all(logs[p] == [("req", 1), ("req", 2)] for p in rts)
    assert rts[0].instances[session].round >= 2


def test_liveness_with_silent_party(keys_4_1):
    net, rts = make_network(keys_4_1, seed=5, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = abc_session("silent")
    logs = _spawn(rts, session)
    net.start()
    for p in rts:
        _submit(rts, session, p, ("req", p))
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=400_000)
    assert all(logs[p] == logs[0] for p in rts)


def test_fairness_request_held_by_honest_quorum_is_delivered(keys_4_1):
    """The paper's fairness: once an honest-containing set holds m, any
    decided list's proposals intersect the holders, so m is delivered in
    the next round — even under targeted delays."""
    net, rts = make_network(keys_4_1, DelayScheduler({0}), seed=6)
    session = abc_session("fair")
    logs = _spawn(rts, session)
    net.start()
    # m is submitted at parties 0 and 1 (t+1 = 2 holders).
    for holder in (0, 1):
        _submit(rts, session, holder, ("req", "held"))
    # Other traffic floods from everyone.
    for p in rts:
        _submit(rts, session, p, ("noise", p))
    net.run(
        until=lambda: all(("req", "held") in logs[p] for p in rts),
        max_steps=400_000,
    )
    rounds = rts[2].instances[session].round
    assert rounds <= 3  # delivered promptly, not starved


def test_unsigned_proposals_rejected(keys_4_1):
    net, rts = make_network(keys_4_1, seed=7, parties=[1])
    session = abc_session("forge")
    _spawn(rts, session)
    net.start()
    fake = AbcProposal(1, (("req", "evil"),), Signature(commit=1, response=1))
    net.send(0, 1, (session, fake))
    net.run(max_steps=1000)
    inst = rts[1].instances[session]
    assert 0 not in _recorded(inst, 1)


def test_delivered_log_records_rounds(keys_4_1):
    net, rts = make_network(keys_4_1, seed=8)
    session = abc_session("log")
    logs = _spawn(rts, session)
    net.start()
    _submit(rts, session, 2, ("req", "x"))
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    entry = rts[0].instances[session].delivered_log[0]
    assert entry[0] == ("req", "x") and entry[1] >= 1


def _round_sizes(inst):
    """How many payloads each delivered round carried, in round order."""
    sizes = collections.Counter(r for _payload, r in inst.delivered_log)
    return [sizes[r] for r in sorted(sizes)]


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("n", [4, 7])
def test_batching_delivers_many_payloads_in_few_rounds(keys_4_1, keys_7_2, n, depth):
    keys = keys_4_1 if n == 4 else keys_7_2
    net, rts = make_network(keys, seed=20)
    session = abc_session("batch")
    logs = _spawn(rts, session, config=AbcConfig(pipeline_depth=depth))
    net.start()
    for i in range(10):
        _submit(rts, session, 0, ("req", i))
    net.run(until=lambda: all(len(logs[p]) >= 10 for p in rts), max_steps=600_000)
    # The ten submissions are one turn of party 0's: round 1 opens when
    # it ends and carries all of them, however deep the pipeline (when a
    # submission opened a round at once: [1, 9] behind the gate, and
    # [2, 2, 6] in five rounds at depth 4 without it).
    for p in rts:
        inst = rts[p].instances[session]
        assert _round_sizes(inst) == [10] and inst.round == 1
    assert all(logs[p] == logs[0] for p in rts)


def test_a_burst_through_the_service_rides_one_round():
    """The benchmark's shape — a service, a pipeline of four, one client
    submitting 60 operations at once — under FIFO delivery: a replica's
    turn ends once it has read all 60, so they ride round 1 together
    (when the first submission opened a round at once: [1, 59] behind
    the gate, [1, 1, 1, 1, 56] before it)."""
    dep = build_service(
        4, KeyValueStore, t=1, scheduler=FifoScheduler(), seed=60,
        abc_config=AbcConfig(pipeline_depth=4),
    )
    client = dep.new_client()
    dep.network.start()
    nonces = [client.submit(("set", f"k{i}", i)) for i in range(60)]
    dep.run_until_complete(client, nonces)
    dep.network.run(max_steps=400_000)
    for replica in dep.replicas.values():
        assert _round_sizes(replica.abc) == [60] and replica.abc.round == 1


def test_byte_budget_caps_batches(keys_4_1, monkeypatch):
    monkeypatch.setattr(atomic_broadcast, "_MAX_BATCH_BYTES", 1)
    config = AbcConfig(max_batch=64)
    # Seed 22 (21 before the binary integer grammar re-drew every coin:
    # under 21 round 1 now decides on no new payload and the three ship
    # in rounds 2..4, mean 0.75).
    net, rts = make_network(keys_4_1, seed=22)
    session = abc_session("budget")
    logs = _spawn(rts, session, config=config)
    net.start()
    for i in range(3):
        _submit(rts, session, 0, ("req", i))
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=600_000)
    inst = rts[0].instances[session]
    # Every payload overflows a 1-byte budget, so each ships alone
    # (the first payload always fits) — one payload per round.
    rounds = [r for _payload, r in inst.delivered_log]
    assert len(set(rounds)) == 3
    assert inst.stats()["mean_batch"] == 1.0


@pytest.mark.parametrize(
    "knob",
    [
        {"pipeline_depth": 0},
        {"max_batch": 0},
    ],
    ids=lambda knob: next(iter(knob)),
)
def test_out_of_range_config_is_refused(knob):
    """A zero-depth pipeline never proposes and a cluster running it is
    quiescent without committing; the config refuses it, naming the
    field, before any replica starts."""
    [name] = knob
    with pytest.raises(ValueError, match=name):
        AbcConfig(**knob)


def test_submit_dedups_against_in_flight_rounds(keys_4_1):
    net, rts = make_network(keys_4_1, seed=22, parties=[0])
    session = abc_session("inflight")
    _spawn(rts, session)
    net.start()
    inst = rts[0].instances[session]
    ctx = ctx_for(rts[0], session)
    inst.submit(ctx, ("req", "x"))
    _end_turn(ctx)
    assert ("req", "x") in inst.in_flight  # proposed in round 1 already
    inst.submit(ctx, ("req", "x"))
    assert list(inst.queue) == [("req", "x")]  # queued once, not twice
    assert inst._select_batch() == []  # and never re-proposed while in flight


def test_pipelined_rounds_deliver_in_order(keys_4_1):
    config = AbcConfig(max_batch=1, pipeline_depth=3)
    net, rts = make_network(keys_4_1, seed=23)
    session = abc_session("pipeline")
    logs = _spawn(rts, session, config=config)
    net.start()
    for i in range(6):
        _submit(rts, session, 0, ("req", i))
    net.run(until=lambda: all(len(logs[p]) >= 6 for p in rts), max_steps=900_000)
    assert all(logs[p] == logs[0] for p in rts)
    assert set(logs[0]) == {("req", i) for i in range(6)}
    inst = rts[0].instances[session]
    rounds = [r for _payload, r in inst.delivered_log]
    assert rounds == sorted(rounds)  # strictly in round order
    assert inst.stats()["pipeline_occupancy"] >= 1.0


def test_out_of_order_decisions_buffered_until_gap_closes(keys_4_1):
    net, rts = make_network(keys_4_1, seed=24, parties=[0])
    session = abc_session("buffered")
    logs = _spawn(rts, session, config=AbcConfig(pipeline_depth=2))
    net.start()
    inst = rts[0].instances[session]
    ctx = ctx_for(rts[0], session)
    batch2 = (("req", "second"),)
    digest2 = batch_digest(batch2)
    inst._round(2).batches[digest2] = batch2
    decision2 = MvbaDecision(proposer=0, value=((0, digest2, None),))
    inst._on_decision(ctx, inst._round(2), decision2)
    assert inst.round == 0 and logs[0] == []  # round 2 waits for round 1
    assert _pending(inst) == [2]
    batch1 = (("req", "first"),)
    digest1 = batch_digest(batch1)
    inst._round(1).batches[digest1] = batch1
    decision1 = MvbaDecision(proposer=1, value=((1, digest1, None),))
    inst._on_decision(ctx, inst._round(1), decision1)
    assert logs[0] == [("req", "first"), ("req", "second")]
    assert inst.round == 2 and not _pending(inst)


def test_missing_batch_fetched_before_delivery(keys_4_1):
    net, rts = make_network(keys_4_1, seed=25, parties=[0])
    session = abc_session("fetch")
    logs = _spawn(rts, session)
    net.start()
    inst = rts[0].instances[session]
    ctx = ctx_for(rts[0], session)
    batch = (("req", "remote"),)
    digest = batch_digest(batch)
    # A decision referencing bytes this party never saw: delivery must
    # stall on a fetch, not crash or skip.
    decision = MvbaDecision(proposer=2, value=((2, digest, None),))
    inst._on_decision(ctx, inst._round(1), decision)
    assert inst.round == 0 and logs[0] == []
    assert digest in inst.rounds[1].requested  # AbcBatchRequest went out
    inst.on_message(ctx, 2, AbcBatch(digest, batch))
    assert logs[0] == [("req", "remote")] and inst.round == 1


def test_a_batch_another_round_holds_is_copied_not_fetched(keys_4_1):
    """A batch proposed again after its round decided without it (or the
    empty one) is held by another round's record: a miss copies it from
    there instead of asking the peers."""
    inst, ctx, _session = _lone_party(keys_4_1, "copy")
    batch = (("req", "again"),)
    digest = batch_digest(batch)
    inst._round(3).batches[digest] = batch
    decision = MvbaDecision(proposer=0, value=((0, digest, None),))
    inst._on_decision(ctx, inst._round(1), decision)
    assert inst.delivered_log == [(("req", "again"), 1)]
    assert not inst.rounds[1].requested


def test_unsolicited_batches_ignored(keys_4_1):
    net, rts = make_network(keys_4_1, seed=26, parties=[0])
    session = abc_session("unsolicited")
    _spawn(rts, session)
    net.start()
    inst = rts[0].instances[session]
    ctx = ctx_for(rts[0], session)
    batch = (("req", "spam"),)
    inst.on_message(ctx, 3, AbcBatch(batch_digest(batch), batch))
    assert batch_digest(batch) not in _held(inst)  # never asked for it


def test_far_future_proposals_dropped_as_lag_evidence(keys_4_1):
    net, rts = make_network(keys_4_1, seed=27, parties=[1])
    session = abc_session("lag")
    _spawn(rts, session)
    net.start()
    inst = rts[1].instances[session]
    fired = []
    inst.on_lag = lambda: fired.append(True)
    rng = random.Random(31)
    far = 500  # far beyond pipeline_depth + _BUFFER_SLACK
    for signer in (0, 2):
        statement = proposal_statement(session, far, batch_digest(()))
        signature = keys_4_1.private[signer].signing_key.sign(statement, rng)
        net.send(signer, 1, (session, AbcProposal(far, (), signature)))
        net.run(max_steps=1000)
    # Bounded buffering: the proposals were NOT stored...
    assert far not in inst.rounds
    # ...but each counted as lag evidence, and once an honest-containing
    # set (t+1 = 2 distinct signers) vouched, the lag hook fired once.
    assert inst.lag_reports == {0: far, 2: far}
    assert fired == [True]


def test_proposal_with_mismatched_batch_rejected(keys_4_1):
    net, rts = make_network(keys_4_1, seed=28, parties=[1])
    session = abc_session("mismatch")
    _spawn(rts, session)
    net.start()
    rng = random.Random(32)
    # Signature covers the digest of one batch; the message carries
    # different bytes — the recomputed digest must not verify.
    statement = proposal_statement(session, 1, batch_digest((("req", "a"),)))
    signature = keys_4_1.private[0].signing_key.sign(statement, rng)
    net.send(0, 1, (session, AbcProposal(1, (("req", "b"),), signature)))
    net.run(max_steps=1000)
    inst = rts[1].instances[session]
    assert 0 not in _recorded(inst, 1)


def test_seven_party_broadcast_with_mixed_inputs(keys_7_2):
    net, rts = make_network(keys_7_2, seed=9, parties=[0, 1, 2, 3, 4])
    for bad in (5, 6):
        net.attach(bad, SilentNode())
    session = abc_session("seven")
    logs = _spawn(rts, session)
    net.start()
    for p in rts:
        _submit(rts, session, p, ("req", p))
    net.run(until=lambda: all(len(logs[p]) >= 5 for p in rts), max_steps=600_000)
    assert all(logs[p] == logs[0] for p in rts)


def test_rebase_carries_in_flight_payloads_to_new_session(keys_4_1):
    """Epoch switch: the hosting session closes while a round is in
    flight.  Without rebase the broadcast wedges — highest_started sits
    above the delivered round, so no new round ever starts and the
    abandoned payload is stuck in the queue forever."""
    net, rts = make_network(keys_4_1, seed=33)
    old = abc_session("rebase-old")
    logs = _spawn(rts, old)
    net.start()
    _submit(rts, old, 0, ("req", "before"))
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    # A payload enters ordering, but the session closes before the
    # round decides: its proposals now land on a closed session.
    for p in rts:
        _submit(rts, old, p, ("req", "racing"))
    new = abc_session("rebase-new")
    for p in rts:
        inst = rts[p].instances.pop(old)
        rts[p].spawn(new, inst)
        inst.rebase(ctx_for(rts[p], new))
    net.run(until=lambda: all(len(logs[p]) >= 2 for p in rts), max_steps=400_000)
    assert all(logs[p] == [("req", "before"), ("req", "racing")] for p in rts)
    # Round numbering continued across the switch (journal monotone).
    inst = rts[0].instances[new]
    rounds = [r for _payload, r in inst.delivered_log]
    assert rounds == sorted(rounds)
    # And fresh traffic on the new session still orders.
    _submit(rts, new, 1, ("req", "after"))
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=400_000)
    assert all(logs[p] == logs[0] for p in rts)


def test_rebase_discards_a_straggler_of_a_dropped_record(keys_4_1):
    """A straggler agreement of the closed session that completes after
    the switch must not race the round restarted under the new one: it
    holds the record rebase() dropped, not the one now in its place."""
    net, rts = make_network(keys_4_1, seed=34, parties=[0])
    session = abc_session("rebase-gen")
    logs = _spawn(rts, session)
    net.start()
    inst = rts[0].instances[session]
    ctx = ctx_for(rts[0], session)
    stale = inst._round(1)
    inst.rebase(ctx)
    assert inst.rounds.get(1) is not stale
    batch = (("req", "stale"),)
    digest = batch_digest(batch)
    for rec in (stale, inst._round(1)):
        rec.batches[digest] = batch
    decision = MvbaDecision(proposer=0, value=((0, digest, None),))
    inst._on_decision(ctx, stale, decision)
    assert logs[0] == [] and not _pending(inst)  # dropped record: ignored
    inst._on_decision(ctx, inst.rounds[1], decision)
    assert logs[0] == [("req", "stale")]  # the current record: delivered


# -- fetching: a request that arrives before the batch is answered later ------------


class _EarlyRequest(FifoScheduler):
    """FIFO, except that party 3's proposal to party 1 waits until parties
    0 and 2 have asked party 1 for a batch, and 0's and 2's proposals to
    party 1 wait until 3's has been delivered."""

    def __init__(self):
        self.asked_1: set[int] = set()
        self.proposal_3_to_1 = False

    def _held(self, envelope):
        if envelope.recipient != 1 or not isinstance(envelope.payload[1], AbcProposal):
            return False
        if envelope.sender == 3:
            return self.asked_1 != {0, 2}
        return envelope.sender in (0, 2) and not self.proposal_3_to_1

    def select(self, pending, rng):
        for index, envelope in enumerate(pending):
            if self._held(envelope):
                continue
            message = envelope.payload[1]
            if envelope.recipient == 1 and isinstance(message, AbcBatchRequest):
                self.asked_1.add(envelope.sender)
            if envelope.recipient == 1 and isinstance(message, AbcProposal):
                self.proposal_3_to_1 |= envelope.sender == 3
            return index
        return None


def test_a_batch_asked_for_before_it_arrived_is_sent_when_it_does():
    """Party 3 (honest inside, but its round-1 proposal and every batch it
    sends to parties 0 and 2 are dropped) alone holds write A; party 1's
    list names A's digest.  Parties 0 and 2 asked party 1 for that batch
    before party 1 had it; they never ask again, so party 1 must send it
    once it arrives, or no third list completes and B never commits."""
    dep = build_service(4, KeyValueStore, t=1, scheduler=_EarlyRequest(), seed=48)
    keys = dep.keys

    def inner(network):
        runtime = ProtocolRuntime(3, network, keys.public, keys.private[3], seed=48)
        runtime.spawn(service_session(), Replica(KeyValueStore()))
        return runtime

    def mutate(recipient, payload):
        message = payload[1]
        muted = isinstance(message, AbcBatch) or (
            isinstance(message, AbcProposal) and message.round == 1
        )
        return None if muted and recipient in (0, 2) else payload

    dep.controller.corrupt(dep.network, 3, MutatingNode(dep.network, 3, inner, mutate))
    client = dep.new_client()
    dep.network.start()
    client.submit(("set", "a", 1), servers=[3])
    b = client.submit(("set", "b", 2), servers=[0, 1, 2])
    dep.network.run(max_steps=20_000)
    assert b in client.completed


# -- adoption: a recorded proposal is also a submission of its payloads -----------


class _ClientFacing(Node):
    """A party whose submissions arrive over the network, as a client's
    do: what the client sends is a payload to a-broadcast, everything
    else is the runtime's."""

    def __init__(self, runtime, session):
        self.runtime = runtime
        self.session = session

    def on_start(self):
        self.runtime.on_start()

    def on_message(self, sender, payload):
        if sender == CLIENT_BASE:
            inst = self.runtime.instances[self.session]
            inst.submit(ctx_for(self.runtime, self.session), payload)
        else:
            self.runtime.on_message(sender, payload)


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize(
    "scheduler", [RandomScheduler, ReorderScheduler, FifoScheduler]
)
def test_lone_payload_rides_one_round(keys_4_1, keys_7_2, scheduler, n, seed):
    """One payload at a time, sent to every party, the network quiescent
    between payloads: each costs exactly one round, whichever of the
    client's copy and a peer's proposal a party sees first.  (Without
    adoption a party that saw the proposal first signed an empty batch
    and opened a second round for the client's copy: through the service,
    2.57 rounds per request at n = 4 and 3.70 at n = 7 under the random
    schedule.)"""
    keys = keys_4_1 if n == 4 else keys_7_2
    net, rts = make_network(keys, scheduler(), seed=seed)
    session = abc_session(("lone", scheduler.__name__, n, seed))
    # The deployed shape (bench/, chaos): a pipeline with room to waste.
    logs = _spawn(rts, session, config=AbcConfig(pipeline_depth=4))
    for party, runtime in rts.items():
        net.nodes[party] = _ClientFacing(runtime, session)
    net.start()
    payloads = 4
    for k in range(payloads):
        for party in rts:
            net.send(CLIENT_BASE, party, ("req", k))
        net.run(max_steps=400_000)  # to quiescence
    for party, runtime in rts.items():
        inst = runtime.instances[session]
        assert logs[party] == [("req", k) for k in range(payloads)]
        assert inst.rounds_delivered == inst.round == payloads


def _signed(keys, session, signer, r, batch, seed=50):
    statement = proposal_statement(session, r, batch_digest(batch))
    signature = keys.private[signer].signing_key.sign(statement, random.Random(seed))
    return AbcProposal(r, batch, signature)


def _lone_party(keys, name, config=None):
    net, rts = make_network(keys, seed=44, parties=[1])
    session = abc_session(name)
    _spawn(rts, session, config=config)
    net.start()
    return rts[1].instances[session], ctx_for(rts[1], session), session


def test_clients_late_copy_starts_no_round(keys_4_1):
    inst, ctx, session = _lone_party(
        keys_4_1, "late-copy", AbcConfig(pipeline_depth=4)
    )
    m = ("req", "m")
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 1, (m,)))
    # The party joined round 1 with what the proposal taught it.
    assert inst.rounds[1].proposal.batch == (m,) and m in inst.in_flight
    assert inst.highest_started == 1
    inst.submit(ctx, m)  # the client's own copy, late
    assert inst.highest_started == 1 and list(inst.queue) == [m]


def test_delivered_payload_is_not_adopted(keys_4_1):
    inst, ctx, session = _lone_party(keys_4_1, "adopt-delivered")
    m = ("req", "old")
    inst.delivered.add(m)
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 1, (m,)))
    assert list(inst.queue) == []
    # Evidence that taught nothing new: the idle party still joins, empty.
    assert inst.rounds[1].proposal.batch == ()


def test_only_a_recorded_proposal_is_adopted(keys_4_1):
    inst, ctx, session = _lone_party(keys_4_1, "adopt-gate")
    first, second = ("req", "first"), ("req", "second")
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 1, (first,)))
    assert list(inst.queue) == [first]
    # Equivocation: the same sender's second batch for the round.
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 1, (second,)))
    # Beyond the window: lag evidence, not a submission.
    far = 1 + inst.config.pipeline_depth + atomic_broadcast._BUFFER_SLACK
    inst.on_message(ctx, 2, _signed(keys_4_1, session, 2, far, (("req", "far"),)))
    assert inst.lag_reports == {2: far}
    # A bad signature: party 3's batch under party 2's key.
    forged = _signed(keys_4_1, session, 2, 1, (("req", "forged"),))
    inst.on_message(ctx, 3, forged)
    assert list(inst.queue) == [first] and inst.queue[first][1] == payload_digest(first)
    assert set(inst.rounds[1].proposals) == {0}


def test_rebase_carries_adopted_payloads_to_new_session(keys_4_1):
    net, rts = make_network(keys_4_1, seed=44, parties=[1])
    old, new = abc_session("adopt-rebase-old"), abc_session("adopt-rebase-new")
    _spawn(rts, old)
    net.start()
    inst = rts[1].instances.pop(old)
    m = ("req", "adopted")
    inst.on_message(ctx_for(rts[1], old), 0, _signed(keys_4_1, old, 0, 1, (m,)))
    assert inst.rounds[1].proposal.batch == (m,)
    rts[1].spawn(new, inst)
    inst.rebase(ctx_for(rts[1], new))
    own = inst.rounds[1].proposal
    assert own.batch == (m,)  # re-proposed under the successor session
    assert keys_4_1.public.verify_keys[1].verify(
        proposal_statement(new, 1, batch_digest(own.batch)), own.signature
    )


def test_predicate_of_a_closed_session_compares_nothing(keys_4_1):
    """The list predicate accepts an entry equal to a recorded proposal
    without verifying it again — but only one recorded under its own
    session: after rebase() the same round number holds proposals signed
    for the successor."""
    net, rts = make_network(keys_4_1, seed=46, parties=[1])
    old, new = abc_session("held-old"), abc_session("held-new")
    _spawn(rts, old)
    net.start()
    inst = rts[1].instances.pop(old)
    stale = inst._list_predicate(ctx_for(rts[1], old), inst._round(1))
    rts[1].spawn(new, inst)
    ctx = ctx_for(rts[1], new)
    inst.rebase(ctx)
    for signer in (0, 2, 3):
        inst.on_message(ctx, signer, _signed(keys_4_1, new, signer, 1, ()))
    value = tuple(
        sorted((j, digest, sig) for j, (digest, sig) in inst.rounds[1].proposals.items())
    )
    assert inst._list_predicate(ctx, inst.rounds[1])(value)
    assert not stale(value)


# -- a batch is a tuple of hashable payloads -----------------------------------------

_UNHASHABLE = [
    {"a": 1},
    QuorumCertificate(signatures={0: Signature(commit=1, response=1)}),
]


@pytest.mark.parametrize("payload", _UNHASHABLE, ids=["dict", "certificate"])
def test_unhashable_payload_does_not_wedge_honest_parties(keys_4_1, payload):
    """A Byzantine server's validly signed proposal carrying a payload
    that cannot be hashed used to be stored, endorsed and decided, and
    then raised ``TypeError`` at the delivered-set lookup at every
    honest party, on every later message.  It is refused on arrival."""
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=45, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = abc_session(("unhashable", type(payload).__name__))
    logs = _spawn(rts, session)
    net.start()
    poison = _signed(keys_4_1, session, 3, 1, (payload,))
    for party in rts:
        net.send(3, party, (session, poison))
    net.run(max_steps=400_000)  # first to arrive everywhere: in every list
    for party, runtime in rts.items():
        assert 3 not in _recorded(runtime.instances[session], 1)
    for party in rts:
        _submit(rts, session, party, ("req", party))
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=400_000)
    assert all(logs[p] == logs[0] for p in rts)
    assert set(logs[0]) == {("req", p) for p in rts}


def test_unhashable_fetched_batch_refused(keys_4_1):
    inst, ctx, _session = _lone_party(keys_4_1, "unhashable-fetch")
    batch = ({"a": 1},)
    digest = batch_digest(batch)
    inst._round(1).requested.add(digest)  # a candidate list referenced it
    inst.on_message(ctx, 3, AbcBatch(digest, batch))
    assert digest not in _held(inst)


def test_oversized_proposal_teaches_nothing_and_enters_no_list(keys_4_1):
    """A Byzantine server's validly signed round-1 proposal carrying
    4 × ``max_batch`` fresh payloads used to be adopted whole: every
    honest queue grew by what one party chose.  ``max_batch`` binds a
    peer's batch as it binds the own: the proposal is refused on
    arrival, so it teaches nobody and no candidate list names it."""
    config = AbcConfig(max_batch=4)
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=45, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = abc_session("oversized")
    logs = _spawn(rts, session, config=config)
    net.start()
    flood = tuple(("flood", i) for i in range(4 * config.max_batch))
    poison = _signed(keys_4_1, session, 3, 1, flood)
    for party in rts:
        net.send(3, party, (session, poison))
    net.run(max_steps=400_000)
    for runtime in rts.values():
        inst = runtime.instances[session]
        assert inst.queue == {} and 3 not in _recorded(inst, 1)
    honest = ("req", "honest")
    for party in rts:
        _submit(rts, session, party, honest)
    net.run(until=lambda: all(logs[p] for p in rts), max_steps=400_000)
    net.run(max_steps=400_000)
    for party, runtime in rts.items():
        decided = runtime.instances[session].rounds[1].decision
        assert logs[party] == [honest] and 3 not in {j for j, _d, _s in decided}


def test_a_payload_equal_to_a_queued_one_is_digested_as_it_encodes(keys_4_1):
    """``True == 1``, yet they encode apart.  A Byzantine server teaches
    party 2 a request whose nonce is ``True`` while parties 0 and 1 queue
    the client's ``1``: each must digest a peer's batch as that batch
    encodes, not reuse its own queued payload's digest — or honest
    parties refuse each other's signatures and no quorum forms."""
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=45, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = abc_session("variant")
    logs = _spawn(rts, session)
    net.start()
    request, variant = ("req", 7, 1, ("op",)), ("req", 7, True, ("op",))
    net.send(3, 2, (session, _signed(keys_4_1, session, 3, 1, (variant,))))
    for party in (0, 1):
        _submit(rts, session, party, request)
    net.run(until=lambda: all(logs[p] for p in rts), max_steps=400_000)
    assert rts[2].instances[session].rounds[1].proposal.batch == (variant,)
    assert all(logs[p] == [request] and type(logs[p][0][2]) is int for p in rts)


# -- the gate: a round opens once the round before it has its proposals -----------


def test_a_submission_waits_for_the_collecting_round_then_rides_the_next(keys_4_1):
    inst, ctx, session = _lone_party(keys_4_1, "gate-hold", AbcConfig(pipeline_depth=4))
    first, second, third = ("req", "first"), ("req", "second"), ("req", "third")
    inst.submit(ctx, first)
    _end_turn(ctx)  # nothing is collecting: round 1 opens as the turn ends
    inst.on_message(ctx, 1, inst.rounds[1].proposal)  # its own copy, delivered
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 1, ()))
    inst.submit(ctx, second)
    inst.submit(ctx, third)
    _end_turn(ctx)
    # Round 1 holds two of a quorum of three: the gate holds both
    # submissions, with a free pipeline slot, and checks no signature.
    assert inst.highest_started == 1 and list(inst.queue) == [first, second, third]
    assert not any(rec.verdicts for rec in inst.rounds.values())
    inst.on_message(ctx, 2, _signed(keys_4_1, session, 2, 1, ()))
    # The quorum starts round 1's agreement, which opens the gate: what
    # queued meanwhile rides round 2 together, and round 2 collects.
    assert inst.rounds[1].agreement_started
    assert inst.highest_started == 2 and inst.rounds[2].proposal.batch == (second, third)
    inst.submit(ctx, ("req", "fourth"))
    _end_turn(ctx)
    assert inst.highest_started == 2


def test_a_peers_proposal_opens_the_next_round_past_the_gate(keys_4_1):
    inst, ctx, session = _lone_party(keys_4_1, "gate-join", AbcConfig(pipeline_depth=4))
    first, second = ("req", "first"), ("req", "second")
    inst.submit(ctx, first)
    _end_turn(ctx)
    inst.submit(ctx, second)
    _end_turn(ctx)
    assert inst.highest_started == 1  # round 1 collects: the gate holds
    # A forged round-2 proposal (party 2's key, sent by 3) is no evidence:
    # checked because the gate would hold, refused, and the gate holds.
    inst.on_message(ctx, 3, _signed(keys_4_1, session, 2, 2, ()))
    assert inst.highest_started == 1 and inst.rounds[2].verdicts == {3: False}
    # A valid one is: the party joins round 2 at once with its queue,
    # round 1 still collecting — the gate never keeps a quorum waiting.
    inst.on_message(ctx, 0, _signed(keys_4_1, session, 0, 2, ()))
    assert not inst.rounds[1].agreement_started
    assert inst.highest_started == 2 and inst.rounds[2].proposal.batch == (second,)
    assert inst.rounds[2].verdicts == {3: False, 0: True}  # each checked once


# -- close: an epoch's last operation ends its session's ordering -----------------


def _closing_round(keys, name, batches, close_at, delivered_before=(), queued=()):
    """A lone party whose round 1 decides ``batches`` (by proposer) and
    whose delivery of ``close_at`` closes the broadcast; returns the
    instance, its context and session, what it delivered, and the
    rounds at which ``on_round_end`` and ``close``'s continuation ran."""
    inst, ctx, session = _lone_party(keys, name)
    inst.delivered.update(delivered_before)
    for payload in queued:
        inst._enqueue(payload)
    delivered, ended, after = [], [], []

    def on_deliver(payload, r):
        delivered.append(payload)
        if payload == close_at:
            inst.close(lambda: after.append(inst.round))

    inst.on_deliver = on_deliver
    inst.on_round_end = ended.append
    value = []
    for j, batch in enumerate(batches):
        digest = batch_digest(batch)
        inst._round(1).batches[digest] = batch
        value.append((j, digest, None))
    inst._on_decision(ctx, inst._round(1), MvbaDecision(proposer=0, value=tuple(value)))
    return inst, ctx, session, delivered, ended, after


def test_close_requeues_only_the_undelivered_tail(keys_4_1):
    """The payloads after the closing one go back to the queue once, in
    delivery order, ahead of what was queued; one delivered in an
    earlier round does not.  The round still counts as delivered and
    ends once, and the continuation runs after it."""
    a, x, b, c, old, waiting = (("req", k) for k in ("a", "x", "b", "c", "old", "w"))
    inst, _ctx, _session, delivered, ended, after = _closing_round(
        keys_4_1, "close-tail",
        [(a, x, b), (old, b, c)],  # proposer 1's batch repeats b
        close_at=x, delivered_before=[old], queued=[waiting],
    )
    assert delivered == [a, x]
    assert inst.round == inst.rounds_delivered == 1
    assert ended == [1] and after == [1]
    assert list(inst.queue) == [b, c, waiting]
    assert [digest for _p, digest, _s in inst.queue.values()] == [
        payload_digest(p) for p in (b, c, waiting)
    ]
    assert inst.closed


def test_close_outside_a_delivery_runs_its_continuation_at_once(keys_4_1):
    inst, _ctx, _session = _lone_party(keys_4_1, "close-replay")
    after = []
    inst.close(lambda: after.append(inst.round))
    assert inst.closed and after == [0]


def test_closed_broadcast_starts_and_delivers_nothing(keys_4_1):
    """After the close, a quorum of round-2 proposals starts no
    agreement (and this party proposes nothing), and a decided round 2
    is held, not delivered."""
    x, b = ("req", "x"), ("req", "b")
    inst, ctx, session, delivered, ended, _after = _closing_round(
        keys_4_1, "close-quiet", [(x, b)], close_at=x
    )
    for signer in (0, 2, 3):
        inst.on_message(ctx, signer, _signed(keys_4_1, session, signer, 2, (b,)))
    assert set(inst.rounds[2].proposals) == {0, 2, 3}
    inst.submit(ctx, ("req", "later"))
    assert not inst.rounds[2].agreement_started
    assert all(rec.proposal is None for rec in inst.rounds.values())
    digest = batch_digest((b,))
    decision = MvbaDecision(proposer=0, value=((0, digest, None),))
    inst._on_decision(ctx, inst.rounds[2], decision)
    assert delivered == [x] and inst.round == 1 and ended == [1]


def test_rebase_reopens_and_the_tail_rides_the_next_round(keys_4_1):
    """Every party closes at the same payload of round 1; rebased onto
    the successor session, the tail is delivered once, in its round 2,
    at every party."""
    net, rts = make_network(keys_4_1, FifoScheduler(), seed=47)
    old, new = abc_session("close-old"), abc_session("close-new")
    logs = _spawn(rts, old)
    a, x, b, c = (("req", k) for k in "axbc")
    for party, runtime in rts.items():
        inst = runtime.instances[old]

        def on_deliver(payload, r, inst=inst, party=party):
            logs[party].append(payload)
            if payload == x:
                inst.close(lambda: None)

        inst.on_deliver = on_deliver
    net.start()
    for party, runtime in rts.items():
        inst = runtime.instances[old]
        for payload in (a, x, b, c):
            inst._enqueue(payload)
        inst._maybe_start_rounds(ctx_for(runtime, old))
    net.run(max_steps=400_000)  # to quiescence: nothing orders past x
    for party, runtime in rts.items():
        inst = runtime.instances[old]
        assert logs[party] == [a, x] and inst.round == 1 and list(inst.queue) == [b, c]
    for runtime in rts.values():
        inst = runtime.instances.pop(old)
        inst.rebase(ctx_for(runtime, new))
        runtime.spawn(new, inst)
    net.run(until=lambda: all(len(logs[p]) >= 4 for p in rts), max_steps=400_000)
    net.run(max_steps=400_000)
    for party, runtime in rts.items():
        inst = runtime.instances[new]
        assert not inst.closed
        assert logs[party] == [a, x, b, c]
        assert inst.delivered_log == [(a, 1), (x, 1), (b, 2), (c, 2)]


# -- a delivered round's agreement leaves with its record ----------------------


def _sessions_bounded(runtime, n, depth):
    """What ``runtime`` keeps per protocol session fits the window: the
    service session, plus per live round its agreement, the agreement's
    n broadcasts and its one vote (every candidate committed: the first
    vote decides 1) — and a round lives from its start, at most
    ``depth`` ahead of delivery, until ``_BUFFER_SLACK`` rounds after."""
    live_rounds = atomic_broadcast._BUFFER_SLACK + depth
    bound = 1 + live_rounds * (n + 2)
    assert len(runtime.instances) <= bound
    assert set(runtime.outputs) <= set(runtime.instances)
    assert set(runtime._callbacks) <= set(runtime.instances)
    assert len(runtime._buffered) <= bound
    assert len(runtime._children) <= 1 + live_rounds
    return len(runtime.instances)


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_live_sessions_stay_inside_the_window(n, t):
    """Forty lock-step rounds (FIFO delivery is the lock-step order):
    every party keeps O(window) sessions, not O(history)."""
    depth, rounds = 2, 40
    service = build_service(
        n, KeyValueStore, t=t, seed=39, scheduler=FifoScheduler(),
        abc_config=AbcConfig(pipeline_depth=depth),
    )
    client = service.new_client()
    service.network.start()
    abc = service.replicas[0].abc
    live = []
    while abc.round < rounds:
        service.run_until_complete(client, [client.submit(("set", "k", abc.round))])
        live.append(max(_sessions_bounded(rt, n, depth) for rt in service.runtimes.values()))
    assert live[-1] == live[len(live) // 2]  # flat once the window filled
    # A late message for a closed round is discarded and spawns nothing.
    closed = ("mvba", (service_session(), 3))
    late = [
        (("cbc", 1, closed), CbcFinal("v", QuorumCertificate({}))),
        (("aba", (closed, 0)), AbaBval(1, 1)),
        (closed, MvbaValue(1, None)),
    ]
    runtime = service.runtimes[0]
    before = set(runtime.instances)
    for payload in late:
        runtime.on_message(1, payload)
    assert set(runtime.instances) == before
    assert not any(session in runtime._buffered for session, _m in late)
    assert closed not in runtime._children


def test_only_traffic_inside_the_window_waits_for_its_agreement():
    service = build_service(4, KeyValueStore, t=1, seed=40, scheduler=FifoScheduler())
    runtime = service.runtimes[0]
    for r in range(10_000, 11_000):  # far future: one peer, a thousand rounds
        runtime.on_message(1, (("aba", (("mvba", (service_session(), r)), 0)), AbaDone(1)))
    assert runtime._buffered == {}
    # Early traffic inside the window still waits, and is replayed when
    # the round's agreement is spawned.
    early = ("cbc", 2, ("mvba", (service_session(), 1)))
    runtime.on_message(2, (early, "early"))
    assert early in runtime._buffered
    client = service.new_client()
    service.network.start()
    service.run_until_complete(client, [client.submit(("set", "k", 1))])
    assert early in runtime.instances and early not in runtime._buffered


def test_a_fast_forward_closes_what_the_window_let_wait():
    service = build_service(4, KeyValueStore, t=1, seed=41, scheduler=FifoScheduler())
    runtime, replica = service.runtimes[0], service.replicas[0]
    waiting = ("aba", (("mvba", (service_session(), 3)), 0))
    runtime.on_message(1, (waiting, AbaDone(1)))
    assert waiting in runtime._buffered
    replica.abc.resume_at(ctx_for(runtime, service_session()), 50)
    assert runtime._buffered == {} and runtime._children[service_session()] == {}


# -- a submission waits for the round in flight: the invariant it relies on --------

_KEYS_4_1 = deal_system(4, random.Random(1001), t=1, group=small_group())
_POOL = [("req", k) for k in range(6)]
_PEERS = [0, 2, 3]


class _LonePartyRounds(RuleBasedStateMachine):
    """Party 1 alone, fed submissions, ends of its turn, signed peer
    proposals inside the window, its own proposals' copies, decisions
    and fetched batches in any order.  A turn that submitted tries to
    open a round as it ends; a fresh payload the gate holds then waits
    for a round event.  The wait ends only if, once the turn has ended,
    a fresh payload always has a round in flight to wait for: that is
    the invariant."""

    def __init__(self):
        super().__init__()
        self.inst, self.ctx, self.session = _lone_party(
            _KEYS_4_1, "waits", AbcConfig(max_batch=3, pipeline_depth=2)
        )
        self.peer_batches = {}  # digest -> batch, for a fetch to answer

    @rule(payload=st.sampled_from(_POOL))
    def submit(self, payload):
        self.inst.submit(self.ctx, payload)

    @rule()
    def end_turn(self):
        _end_turn(self.ctx)

    @rule(
        signers=st.lists(st.sampled_from(_PEERS), min_size=1, unique=True),
        # Mostly the rounds in flight, so quorums form and rounds deliver.
        ahead=st.one_of(st.just(1), st.just(2), st.integers(1, 2 + atomic_broadcast._BUFFER_SLACK)),
        batch=st.lists(st.sampled_from(_POOL), unique=True, max_size=3),
    )
    def peer_proposals(self, signers, ahead, batch):
        r = self.inst.round + ahead
        for signer in signers:
            proposal = _signed(_KEYS_4_1, self.session, signer, r, tuple(batch))
            self.inst.on_message(self.ctx, signer, proposal)

    @rule(ahead=st.integers(1, 2))
    def own_copy(self, ahead):
        rec = self.inst.rounds.get(self.inst.round + ahead)
        if rec is not None and rec.proposal is not None:
            self.inst.on_message(self.ctx, 1, rec.proposal)

    def _undecided(self):
        inst = self.inst
        return [
            rec for r, rec in sorted(inst.rounds.items())
            if r > inst.round and rec.agreement_started and rec.decision is None
        ]

    @precondition(lambda self: self._undecided())
    @rule(data=st.data())
    def decide(self, data):
        rec = data.draw(st.sampled_from(self._undecided()))
        entries = sorted((j, digest, sig) for j, (digest, sig) in rec.proposals.items())
        if data.draw(st.booleans()):
            # An entry whose batch this party never saw: fetched first.
            signer = data.draw(st.sampled_from(_PEERS))
            batch = tuple(data.draw(st.lists(st.sampled_from(_POOL), unique=True, max_size=3)))
            signed = _signed(_KEYS_4_1, self.session, signer, rec.number, batch)
            digest = batch_digest(batch)
            self.peer_batches[digest] = batch
            entries = [e for e in entries if e[0] != signer] + [(signer, digest, signed.signature)]
        value = data.draw(st.lists(st.sampled_from(entries), min_size=1, unique=True))
        self.inst._on_decision(self.ctx, rec, MvbaDecision(proposer=0, value=tuple(sorted(value))))

    @rule()
    def answer_fetches(self):
        for rec in list(self.inst.rounds.values()):
            for digest in sorted(rec.requested - set(rec.batches)):
                self.inst.on_message(self.ctx, 0, AbcBatch(digest, self.peer_batches[digest]))

    @invariant()
    def a_fresh_payload_has_a_round_in_flight(self):
        inst = self.inst
        assert not inst.closed
        if inst._turn is not None:
            return  # checked once the turn has ended
        fresh = [p for p in inst.queue if p not in inst.delivered and p not in inst.in_flight]
        assert not fresh or inst.highest_started > inst.round


TestLonePartyRounds = _LonePartyRounds.TestCase
TestLonePartyRounds.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
