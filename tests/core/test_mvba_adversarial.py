"""Adversarial inputs to multi-valued agreement: forged values, bogus
coin shares, junk — none may break agreement or external validity."""

from helpers import make_network, run_until_outputs

from repro.core.consistent_broadcast import CbcDelivery
from repro.core.multivalued_agreement import (
    MultiValuedAgreement,
    MvbaPermShare,
    MvbaValue,
    mvba_session,
)
from repro.crypto.coin import CoinShare
from repro.crypto.threshold_sig import QuorumCertificate
from repro.net.adversary import SilentNode


def _valid(v):
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "proposal"


def _spawn(rts, session):
    for p, rt in rts.items():
        rt.spawn(session, MultiValuedAgreement(("proposal", p), predicate=_valid))


def test_forged_mvba_value_rejected(keys_4_1):
    """An MvbaValue with an empty/foreign certificate never becomes the
    decision."""
    net, rts = make_network(keys_4_1, seed=1, parties=[0, 1, 2])

    class Forger(SilentNode):
        def __init__(self):
            self.fired = False

        def on_message(self, sender, payload):
            if self.fired:
                return
            self.fired = True
            fake = MvbaValue(
                3,
                CbcDelivery(
                    sender=3,
                    value=("proposal", "FORGED"),
                    certificate=QuorumCertificate(signatures={}),
                ),
            )
            net.broadcast(3, (session, fake))

    session = mvba_session("forge")
    net.attach(3, Forger())
    _spawn(rts, session)
    outputs = run_until_outputs(net, rts, session)
    for d in outputs.values():
        assert d.value != ("proposal", "FORGED")


def test_bogus_perm_coin_shares_ignored(keys_4_1):
    """Coin shares replayed under the wrong name or wrong claimed party
    cannot poison the candidate permutation."""
    net, rts = make_network(keys_4_1, seed=2, parties=[0, 1, 2])

    class CoinMixer(SilentNode):
        def __init__(self):
            self.count = 0

        def on_message(self, sender, payload):
            if not isinstance(payload, tuple) or len(payload) != 2:
                return
            _sess, msg = payload
            if isinstance(msg, MvbaPermShare) and self.count < 3:
                self.count += 1
                # Replay someone else's share as our own (party mismatch)
                net.broadcast(3, (session, msg))
                # ...and a share for a different coin name.
                wrong = CoinShare(
                    party=3, name=("wrong", "name"),
                    values=msg.share.values, proofs=msg.share.proofs,
                )
                net.broadcast(3, (session, MvbaPermShare(wrong)))

    session = mvba_session("coin-mix")
    net.attach(3, CoinMixer())
    _spawn(rts, session)
    outputs = run_until_outputs(net, rts, session)
    assert len({(d.proposer, d.value) for d in outputs.values()}) == 1


def test_junk_messages_do_not_stall(keys_4_1):
    net, rts = make_network(keys_4_1, seed=3, parties=[0, 1, 2])

    class JunkSprayer(SilentNode):
        def __init__(self):
            self.count = 0

        def on_message(self, sender, payload):
            if self.count > 20:
                return
            self.count += 1
            net.broadcast(3, (session, ("garbage", self.count)))
            net.broadcast(3, (session, MvbaValue("x", "y")))

    session = mvba_session("junk")
    net.attach(3, JunkSprayer())
    _spawn(rts, session)
    outputs = run_until_outputs(net, rts, session)
    decisions = {(d.proposer, d.value) for d in outputs.values()}
    assert len(decisions) == 1
    proposer, value = decisions.pop()
    assert _valid(value) and proposer in (0, 1, 2)


def test_a_party_that_opens_the_coin_first_releases_its_share(keys_7_2):
    """n = 7, t = 2.  Replica 0 receives a robust set of permutation
    shares (2t + 1 = 5) before its own deliveries are a quorum: it opens
    the coin and releases its own share then, for a laggard whose robust
    set may need every honest share — t Byzantine shares can reach some
    parties only."""
    import random

    from helpers import record_sends

    net, rts = make_network(keys_7_2, seed=3, parties=[0])
    sent = record_sends(net)
    session = mvba_session("open-first")
    inst = rts[0].spawn(session, MultiValuedAgreement(("proposal", 0), predicate=_valid))
    name, rng = ("mvba-perm", session), random.Random(4)
    for party in range(1, 6):
        share = keys_7_2.private[party].coin.share_for(name, rng)
        rts[0].on_message(party, (session, MvbaPermShare(share)))
    assert inst.permutation is not None and inst.perm_released
    own = [m for m in sent if isinstance(m, MvbaPermShare)]
    assert own and {m.share.party for m in own} == {0}


def test_a_laggard_missing_shares_opens_the_coin_once_a_peer_decided():
    """n = 4, t = 1.  What party 1 sends party 2 in the first agreement
    never arrives, nor party 0's ``CbcFinal`` (as on TCP when party 2 was
    down, or not yet admitting the round): party 2 holds the permutation
    shares of 0 and 3 — qualified, not robust — and, its deliveries short
    of a quorum, never releases its own.  The others decide and stop
    sending shares.  A peer's ``MvbaValue`` tells party 2 the coin is
    settled elsewhere: it checks the two shares' proofs, opens the coin
    and decides with the others."""
    from repro.core.consistent_broadcast import CbcEchoSignature, CbcFinal, CbcSend
    from repro.net.scheduler import FifoScheduler
    from repro.smr.replica import service_session
    from repro.smr.service import build_service
    from repro.smr.state_machine import KeyValueStore

    agreement = ("mvba", (service_session(), 1))

    def lost(envelope):
        session, message = envelope.payload
        in_agreement = session == agreement or agreement in session
        return envelope.recipient == 2 and in_agreement and (
            (envelope.sender == 1
             and isinstance(message, (MvbaPermShare, CbcSend, CbcEchoSignature, CbcFinal)))
            or (envelope.sender == 0 and isinstance(message, CbcFinal))
        )

    class Lossy(FifoScheduler):
        def select(self, pending, rng):
            return next((i for i, e in enumerate(pending) if not lost(e)), None)

    service = build_service(4, KeyValueStore, t=1, scheduler=Lossy(), seed=8)
    client = service.new_client()
    nonce = client.submit(("set", "key", 1))
    service.network.start()
    service.run_until_complete(client, [nonce])
    service.network.run(until=lambda: len(service.replicas[2].executed) == 1)
    laggard = service.runtimes[2].instances[agreement]
    assert laggard.perm_settled and sorted(laggard.perm_coin.valid) == [0, 3]
    permutations = {tuple(service.runtimes[p].instances[agreement].permutation)
                    for p in range(4)}
    assert len(permutations) == 1
