"""Admission: a received field has its declared type.

A corrupted server sends anything that parses (paper §2), and ``True ==
1`` while the two encode apart.  Every registered wire type declares its
fields, and :func:`repro.codec.admits` holds a received payload to them
where it enters a node, on both networks (docs/PROTOCOLS.md,
"Admission"): a message that fails is counted as ``admission.dropped``
and reaches no handler.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import typing

import pytest

from repro import codec
from repro.core.atomic_broadcast import AbcBatch, AbcBatchRequest, AbcProposal, AbcRejoin
from repro.core.binary_agreement import AbaAux, AbaBval, AbaCoinShare, AbaConf, AbaDone
from repro.core.consistent_broadcast import CbcEchoSignature
from repro.core.secure_causal import ScDecryptionShare
from repro.crypto import keystore
from repro.crypto.coin import CoinShare
from repro.crypto.dealer import deal_system
from repro.crypto.dkg import DkgDefense, DkgReady, DkgStatus, FeldmanTree, ReshareCommit
from repro.crypto.groups import small_group
from repro.crypto.schnorr import Signature
from repro.crypto.threshold_enc import DecryptionShare
from repro.crypto.threshold_sig import RsaSignatureShare
from repro.crypto.zkp import DleqProof
from repro.net import wire
from repro.net.adversary import SilentNode
from repro.net.cluster import deal_deployment
from repro.net.runtime import ReplicaHost
from repro.net.scheduler import FifoScheduler
from repro.net.simulator import Network, Node
from repro.net.transport import TransportNetwork
from repro.smr import KeyValueStore, build_service
from repro.smr.reconfig import EpochError, adopt_membership, signed_membership_info
from repro.smr.replica import RecoverLog, service_session
from repro.smr.state_machine import Reply

# Every field the contract checks at most at its top type.  Tightening
# one removes it here; a new loose field fails the test until it is
# listed (prefer declaring its shape).
LOOSE = {
    # object
    "CoinShare.name", "Reply.result",
    # Hashable (a protocol value the layer above interprets)
    "CbcDelivery.value", "CbcFinal.value", "CbcSend.value", "MvbaDecision.value",
    "RbcEcho.value", "RbcReady.value", "RbcSend.value",
    "Commit.value", "NewView.value", "PrePrepare.value", "Prepare.value",
    "ViewChange.prepared_value",
    # bare tuple: batches of client payloads and application operations
    "AbcBatch.batch", "AbcProposal.batch", "Request.operation",
    "SubmitRequest.request", "SubmitUnordered.request",
}


def test_every_registered_field_compiles_to_a_check():
    loose = set()
    for name, cls in wire.registered_types().items():
        if not cls.__module__.startswith("repro."):
            continue  # registered by a test
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            if not codec._check_lines(hint, "v", {}, "") or hint in (tuple, frozenset, dict):
                loose.add(f"{name}.{field.name}")
    assert loose == LOOSE


# -- one True-spelled field per former guard, dropped before any handler -------------

_SIG = Signature(commit=5, response=7)
_DIGEST = bytes(32)
_PROOF = DleqProof(commit1=2, commit2=3, response=4)


def _share(cls, **change):
    fields = dict(party=1, values={(1,): 9}, proofs={(1,): _PROOF})
    if cls is CoinShare:
        fields["name"] = "coin"
    return cls(**{**fields, **change})


def _tree(commitment):
    return FeldmanTree(nodes=(((), (commitment, 3)),))


SPELLED = {
    "abba-round": AbaBval(True, 1),
    "abba-vote": AbaAux(1, True),
    "abba-conf-vote": AbaConf(1, frozenset({True})),
    "abba-done-vote": AbaDone(True),
    "abc-proposal-round": AbcProposal(True, (), _SIG),
    "abc-batch-request-round": AbcBatchRequest(True, _DIGEST),
    "abc-batch-digest": AbcBatch("digest", ()),
    "abc-rejoin-round": AbcRejoin(True),
    "recovery-log-round": RecoverLog(entries=((("req", 1000, 1, ()), True),), round=1),
    "recovery-log-answer-round": RecoverLog(entries=(), round=True),
    "epoch-error-epoch": EpochError(replica=1, epoch=True),
    "dkg-accuser": DkgDefense(True, (), ()),
    "dkg-complaint": DkgStatus((True,)),
    "dkg-ready-digest": DkgReady("digest", _SIG),
    "dkg-commitment": ReshareCommit(coin=(((0,), _tree(True), ()),), enc=()),
    "signature-commitment": CbcEchoSignature(Signature(commit=True, response=7)),
    "coin-proof-commitment": AbaCoinShare(2, _share(CoinShare, proofs={(1,): DleqProof(True, 3, 4)})),
    "coin-share-value": AbaCoinShare(2, _share(CoinShare, values={(1,): True})),
    "decryption-share-digest": ScDecryptionShare("digest", _share(DecryptionShare)),
    "reply-signature-commitment": Reply(1, 1000, 1, ("ok", 1), Signature(commit=True, response=7)),
}


class _Recording(Node):
    def __init__(self) -> None:
        self.seen: list[object] = []

    def on_message(self, sender: int, payload: object) -> None:
        self.seen.append(payload)


@pytest.mark.parametrize("site", sorted(SPELLED))
def test_a_field_spelled_true_is_dropped_at_admission_on_both_networks(site):
    message = SPELLED[site]
    session = ("site", site)
    simulated, sim_node = Network(FifoScheduler()), _Recording()
    simulated.attach(0, sim_node)
    simulated.send(1, 0, (session, message))
    simulated.run()
    tcp = TransportNetwork(0, {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}, {1: bytes(32)})
    tcp_node = _Recording()
    tcp.attach(0, tcp_node)
    tcp._dispatch(1, wire.loads(wire.dumps((session, message))))
    for network, node in ((simulated, sim_node), (tcp, tcp_node)):
        assert node.seen == []
        assert network.trace.delivered == 1
        assert network.trace.counters["admission.dropped"] == 1


def test_well_typed_spellings_of_the_same_messages_are_admitted():
    """The fixtures above differ from admitted messages only in the
    spelled field."""
    well_typed = [
        AbaBval(1, 1), AbaConf(1, frozenset({0, 1})), AbcProposal(2, (), _SIG),
        RecoverLog(entries=((("req", 1000, 1, ()), 1),), round=1),
        DkgStatus((1, 2)), ReshareCommit(coin=(((0,), _tree(4), (((1,), 5),)),), enc=()),
        AbaCoinShare(2, _share(CoinShare)), ScDecryptionShare(_DIGEST, _share(DecryptionShare)),
        Reply(1, 1000, 1, ("ok", 1), _SIG),
    ]
    assert all(codec.admits((("s",), message)) for message in well_typed)


def test_a_reply_share_that_is_no_signature_is_dropped_at_admission():
    """The service signs with quorum certificates only: a reply's share
    is one Schnorr signature, so a Shoup RSA share, which still parses,
    and a bare value are refused before the client weighs them."""
    rsa = RsaSignatureShare(party=2, value=5, commit_v=6, commit_x=7, response=8)
    for share in (rsa, b"share", 5, None):
        assert not codec.admits((("s",), Reply(1, 1000, 1, ("ok", 1), share)))


# -- a membership record for epoch True ----------------------------------------------


def _records(keys, public, epoch_of_liar, honest=0):
    """Replica ``honest`` votes for epoch 1; replica 3 signs the same
    configuration for ``epoch_of_liar``."""
    rng, public_dict = random.Random(3), keystore.public_to_dict(public)
    vote = signed_membership_info(honest, 1, public_dict, keys.private[honest].signing_key, rng)
    liar = signed_membership_info(3, epoch_of_liar, public_dict, keys.private[3].signing_key, rng)
    return vote, liar


def test_a_membership_record_for_epoch_true_does_not_complete_a_quorum():
    """``True`` and 1 are one dict key, so the liar's vote once joined
    the honest one and the adopter's epoch became ``True``."""
    keys = deal_system(4, random.Random(1), t=1, group=small_group())
    honest, liar = _records(keys, keys.public, True)
    votes: dict = {}
    assert adopt_membership(votes, keys.public, 0, 0, honest) is None
    assert adopt_membership(votes, keys.public, 0, 3, liar) is None
    _, second = _records(keys, keys.public, 1)
    adopted = adopt_membership(votes, keys.public, 0, 3, second)
    assert adopted is not None and type(adopted[0]) is int


def test_a_client_drops_a_membership_record_for_epoch_true():
    service = build_service(4, KeyValueStore, t=1, seed=4, scheduler=FifoScheduler())
    client = service.new_client()
    service.network.start()
    honest, liar = _records(service.keys, service.keys.public, True)
    service.network.send(0, client.client_id, (client.session, honest))
    service.network.send(3, client.client_id, (client.session, liar))
    service.network.run()
    assert client.epoch == 0 and type(client.epoch) is int
    assert service.network.trace.counters["admission.dropped"] == 1


def test_a_stale_host_drops_a_membership_record_for_epoch_true(tmp_path):
    """A host that missed an epoch adopts the members' records
    (``_on_stale_info``) by the client's rule; the liar's is dropped
    before it counts."""

    async def scenario():
        keys = deal_deployment(tmp_path, 4, 1, random.Random(5))
        network = Network(FifoScheduler())
        for party in (1, 2, 3):
            network.attach(party, SilentNode())
        host = ReplicaHost(tmp_path, 0, network=network)
        await host.start()
        try:
            honest, liar = _records(keys, host.public, True, honest=1)
            network.send(1, 0, (service_session(), honest))
            network.send(3, 0, (service_session(), liar))
            network.run()
            assert host.epoch == 0 and type(host.epoch) is int
            assert network.trace.counters["admission.dropped"] == 1
        finally:
            await host.close()

    asyncio.run(scenario())
