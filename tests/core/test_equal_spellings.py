"""Ids that compare equal but encode apart: ``True == 1``, yet ``T`` is
not ``j…``.

Replicas match received round numbers and session ids by Python
equality, but sign and hash them by their encoding.  A Byzantine
replica that spells ``1`` as ``True`` must gain nothing by it: a round
number or an agreement vote must be an ``int`` to be read at all, and
an instance always sees the id it was spawned under (docs/PROTOCOLS.md,
"Sessions").
"""

from __future__ import annotations

import dataclasses
import random

from helpers import make_network, record_sends, run_until_outputs

from repro.core.atomic_broadcast import AbcProposal, _digest_over, proposal_statement
from repro.core.binary_agreement import (
    AbaAux,
    AbaBval,
    AbaConf,
    AbaDone,
    BinaryAgreement,
    aba_session,
)
from repro.core.multivalued_agreement import MultiValuedAgreement, MvbaPermShare
from repro.net.adversary import SilentNode
from repro.net.scheduler import FifoScheduler, RandomScheduler
from repro.smr.replica import service_session
from repro.smr.service import build_service
from repro.smr.state_machine import KeyValueStore


def test_a_proposal_for_round_true_does_not_stall_the_service():
    """Party 3 signs an empty proposal for round ``True`` and crashes.
    Read as round 1, it opened party 0's round 1 under the number
    ``True``: party 0 then signed its own proposal over ``True`` and
    refused its peers', signed over ``1``, and with party 3 gone no
    quorum of round 1 could form anywhere — the first request never
    committed."""
    service = build_service(4, KeyValueStore, t=1, scheduler=FifoScheduler(), seed=7)
    sid = service_session()
    statement = proposal_statement(sid, True, _digest_over([]))
    signature = service.keys.private[3].signing_key.sign(statement, random.Random(1))
    service.network.send(3, 0, (sid, AbcProposal(True, (), signature)))
    service.network.crash(3)
    client = service.new_client()
    nonce = client.submit(("set", "key", 1))
    service.run_until_complete(client, [nonce], max_steps=50_000)
    honest = [service.replicas[p] for p in range(3)]
    assert [replica.abc.round for replica in honest] == [1, 1, 1]
    assert all(type(r) is int for replica in honest for r in replica.abc.rounds)


class _HoldShares(FifoScheduler):
    """FIFO, but the honest permutation-coin shares bound for replica 0
    wait while ``holding``."""

    def __init__(self, senders: set[int]) -> None:
        self.senders = senders
        self.holding = True

    def select(self, pending, rng):
        for index, envelope in enumerate(pending):
            held = (
                self.holding
                and envelope.recipient == 0
                and envelope.sender in self.senders
                and isinstance(envelope.payload[1], MvbaPermShare)
            )
            if not held:
                return index
        return None


def test_a_session_spelled_with_true_does_not_split_the_coin():
    """n = 7, t = 2; replicas 5 and 6 are Byzantine.  Replica 0 holds its
    own permutation share and replica 1's, then 5's forged share and 6's
    share for the coin named under the agreement's id spelled
    ``("mvba", (service, True))``; replica 2's share makes the held set
    robust (2t + 1), its consistency check fails, and the proofs ban 5
    and 6.  That spelling once reached the instance as ``ctx.session``:
    replica 0 checked the shares against it and opened the coin with it
    — a permutation of its own, apart from replicas 1–4.  Now the share
    is checked against the id as spawned, fails, and replica 0 opens the
    coin the others open."""
    scheduler = _HoldShares({2, 3, 4})
    service = build_service(7, KeyValueStore, t=2, scheduler=scheduler, seed=3)
    network, keys = service.network, service.keys
    sid = service_session()
    agreement, spelled = ("mvba", (sid, 1)), ("mvba", (sid, True))
    for byzantine in (5, 6):
        network.crash(byzantine)
    client = service.new_client()
    client.submit(("set", "key", 1))
    rng = random.Random(4)

    def replica_0_agreement() -> MultiValuedAgreement | None:
        return service.runtimes[0].instances.get(agreement)

    def run_until(goal) -> None:
        while not goal():
            assert network.step(), "quiescent before the scenario's step"

    network.start()
    run_until(lambda: (inst := replica_0_agreement()) and set(inst.perm_coin.pending) == {0, 1})
    forged = keys.private[5].coin.share_for(("mvba-perm", agreement), rng)
    forged = dataclasses.replace(
        forged, values={slot: value * value % keys.public.group.p
                        for slot, value in forged.values.items()},
    )
    network.send(5, 0, (agreement, MvbaPermShare(forged)))
    share = keys.private[6].coin.share_for(("mvba-perm", spelled), rng)
    network.send(6, 0, (spelled, MvbaPermShare(share)))
    run_until(lambda: set(replica_0_agreement().perm_coin.pending) == {0, 1, 5, 6})
    scheduler.senders = {3, 4}  # replica 2's share completes a robust set
    network.run(until=lambda: replica_0_agreement().permutation is not None)
    assert replica_0_agreement().perm_coin.banned == {5, 6}
    assert set(replica_0_agreement().perm_coin.valid) == {0, 1, 2}
    scheduler.holding = False
    network.run()
    permutations = [
        service.runtimes[p].instances[agreement].permutation for p in range(5)
    ]
    assert None not in permutations
    assert all(p == permutations[0] for p in permutations)
    assert [service.replicas[p].abc.round for p in range(5)] == [1] * 5


def _votes(message: object) -> tuple:
    if isinstance(message, (AbaBval, AbaAux, AbaDone)):
        return (message.value,)
    if isinstance(message, AbaConf):
        return tuple(message.values)
    return ()


def test_an_agreement_vote_spelled_true_is_not_echoed_or_decided(keys_4_1):
    """Party 3 sends BVAL, AUX, CONF and DONE for ``True`` and falls
    silent.  Counted as a vote for 1, ``True`` used to travel on: honest
    parties put it in their own AUX and CONF, and one that adopted the
    DONE output ``True``.  A vote must be exactly the ``int`` 0 or 1."""
    echoed, decided = [], []
    for seed in range(40):
        network, runtimes = make_network(
            keys_4_1, RandomScheduler(), seed=seed, parties=[0, 1, 2]
        )
        network.attach(3, SilentNode())
        session = aba_session(("spelled", seed))
        lies = (AbaBval(1, True), AbaAux(1, True), AbaConf(1, frozenset({True})),
                AbaDone(True))
        for lie in lies:
            network.broadcast(3, (session, lie))
        sent = record_sends(network)
        for party, runtime in runtimes.items():
            runtime.spawn(session, BinaryAgreement(party % 2))
        outputs = run_until_outputs(network, runtimes, session)
        echoed += [m for m in sent if any(type(v) is bool for v in _votes(m))]
        decided += [v for v in outputs.values() if type(v) is not int]
    assert (len(echoed), len(decided)) == (0, 0)
