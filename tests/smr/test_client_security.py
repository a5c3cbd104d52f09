"""Client-side verification: corrupted replicas cannot forge answers."""

import random
from dataclasses import replace
from types import SimpleNamespace

from repro.core.atomic_broadcast import payload_digest
from repro.crypto import hashing
from repro.crypto.schnorr import Signature
from repro.net.scheduler import FifoScheduler
from repro.smr import KeyValueStore, build_service
from repro.smr.client import CompletedRequest
from repro.smr.replica import (
    MAX_PATH,
    SubmitEncrypted,
    SubmitRequest,
    SubmitUnordered,
    reply_leaf,
    reply_root,
    reply_tree,
    service_session,
    tree_statement,
)
from repro.smr.state_machine import Reply, Request

from ..helpers import record_sends


def _deploy(seed):
    dep = build_service(4, KeyValueStore, t=1, seed=seed)
    client = dep.new_client()
    dep.network.start()
    return dep, client


def _replies(client, nonce):
    """The replies ``client`` holds for ``nonce`` while it is pending."""
    pending = client._pending.get(nonce)
    return pending.replies if pending is not None else {}


def _digest(client, nonce, operation):
    return payload_digest(Request(client.client_id, nonce, operation).encode())


def _share(dep, replica, root):
    """Replica ``replica``'s genuine service-signature share on ``root``."""
    signer = dep.keys.private[replica].service_signer
    return signer.sign_share(tree_statement(root), random.Random(replica))


def _offer(dep, client, replica, nonce, result, share, path):
    """Deliver a reply from ``replica`` straight to the client."""
    reply = Reply(
        replica=replica,
        client=client.client_id,
        nonce=nonce,
        result=result,
        signature_share=share,
        path=path,
    )
    client.on_message(replica, (service_session(), reply))
    return replica in _replies(client, nonce)


def test_forged_result_from_single_replica_ignored():
    """One corrupted replica sends a wrong result with a junk share;
    the client completes with the honest majority's answer."""
    dep, client = _deploy(61)
    nonce = client.submit(("get", "missing"))
    # Corrupt reply raced in from "server 3".
    forged = Reply(
        replica=3,
        client=client.client_id,
        nonce=nonce,
        result=("value", "EVIL"),
        signature_share=Signature(commit=1, response=1),
    )
    dep.network.send(3, client.client_id, (service_session(), forged))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("value", None)


def test_matching_lies_without_valid_shares_never_complete():
    """Even t+1 *claimed* identical wrong answers cannot complete the
    request when their signature shares do not verify."""
    dep, client = _deploy(62)
    nonce = client.submit(("get", "x"))
    for replica in (2, 3):
        forged = Reply(
            replica=replica,
            client=client.client_id,
            nonce=nonce,
            result=("value", "EVIL"),
            signature_share=Signature(commit=1, response=1),
        )
        dep.network.send(replica, client.client_id,
                         (service_session(), forged))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("value", None)


def test_reply_claiming_wrong_replica_id_ignored():
    """A reply whose channel sender and claimed replica differ is junk,
    even when its share is the sender's own valid one."""
    dep, client = _deploy(63)
    nonce = client.submit(("set", "k", 1))
    # Replica 2's genuine share on its answer (a one-leaf tree: the root
    # is the leaf), in a reply that claims to come from replica 0.
    leaf = reply_leaf(_digest(client, nonce, ("set", "k", 1)), ("ok", 1))
    spoofed = Reply(
        replica=0,
        client=client.client_id,
        nonce=nonce,
        result=("ok", 1),
        signature_share=_share(dep, 2, leaf),
    )
    client.on_message(2, (service_session(), spoofed))
    # Only the sender check stands between this reply and the pending
    # record: the share would verify under sender 2.
    assert 2 not in _replies(client, nonce)
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("ok", 1)


def test_replies_for_foreign_nonces_ignored():
    dep, client = _deploy(64)
    stray = Reply(
        replica=1,
        client=client.client_id,
        nonce=999,  # never submitted
        result=("ok", 1),
        signature_share=Signature(commit=1, response=1),
    )
    dep.network.send(1, client.client_id, (service_session(), stray))
    dep.network.run(max_steps=10_000)
    assert 999 not in client.completed


def test_completed_answer_is_externally_verifiable():
    """The combined service signature convinces any third party holding
    only the public bundle — and fails for any altered result."""
    dep, client = _deploy(65)
    nonce = client.submit(("set", "audited", 7))
    results = dep.run_until_complete(client, [nonce])
    completed = results[nonce]
    assert completed.verify(dep.keys.public, client.client_id, ("set", "audited", 7))
    # Tampered operation or result: verification fails.
    assert not completed.verify(dep.keys.public, client.client_id, ("set", "audited", 8))
    from dataclasses import replace

    tampered = replace(completed, result=("ok", 99))
    assert not tampered.verify(dep.keys.public, client.client_id, ("set", "audited", 7))


class _DictReads(KeyValueStore):
    """A corrupted replica's application: it answers reads with a dict,
    which the wire carries (``codec`` writes dicts) but which is not
    hashable."""

    def apply(self, request):
        if self.is_read_only(request.operation):
            return {"value": "EVIL"}
        return super().apply(request)


def test_unhashable_result_cannot_stall_the_client():
    """Replica 3 signs a dict result correctly with its own key and its
    reply reaches the client first.  Grouping replies by result raised
    on it — on that reply and on every honest one after it — so the
    request never completed; grouped by (leaf, root) bytes, the honest
    replies complete it."""
    stores = iter([KeyValueStore(), KeyValueStore(), KeyValueStore(), _DictReads()])
    dep = build_service(4, lambda: next(stores), t=1, seed=66)
    client = dep.new_client()
    dep.network.start()
    # Replica 3 answers the read at once, before anything is ordered.
    nonce = client.submit_unordered(("get", "k"), servers=[3])
    dep.network.run()
    assert 3 in client._pending[nonce].replies
    client.resubmit(nonce)  # now every replica orders and answers it
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("value", None)
    assert results[nonce].verify(dep.keys.public, client.client_id, ("get", "k"))


def test_path_to_another_root_is_refused():
    """A genuine share on a tree's root, shipped with a path that leads
    from the answer's leaf to some other root, is discarded."""
    dep, client = _deploy(67)
    operation = ("set", "k", 1)
    nonce = client.submit(operation)
    leaf = reply_leaf(_digest(client, nonce, operation), ("ok", 1))
    other = reply_leaf(_digest(client, nonce + 1, operation), ("ok", 2))
    root, paths = reply_tree([leaf, other])
    share = _share(dep, 3, root)
    for forged in (((False, bytes(32)),), ((True, other),), ()):
        assert not _offer(dep, client, 3, nonce, ("ok", 1), share, forged)
    assert _offer(dep, client, 3, nonce, ("ok", 1), share, paths[0])


def test_byzantine_tree_holding_the_right_leaf_completes_nothing_alone():
    """Replica 3 builds its own tree around the right answer and signs
    it: its reply is valid, but it groups with no honest reply (a
    different root), so alone it completes nothing; the honest replies
    complete the request without it."""
    dep, client = _deploy(68)
    operation = ("set", "k", 1)
    nonce = client.submit(operation)
    leaf = reply_leaf(_digest(client, nonce, operation), ("ok", 1))
    junk = [reply_leaf(("junk", i), i) for i in range(2)]
    root, paths = reply_tree([junk[0], leaf, junk[1]])
    assert _offer(dep, client, 3, nonce, ("ok", 1), _share(dep, 3, root), paths[1])
    assert nonce not in client.completed
    completed = dep.run_until_complete(client, [nonce])[nonce]
    assert completed.result == ("ok", 1)
    assert 3 not in completed.signature.signers
    assert completed.verify(dep.keys.public, client.client_id, operation)


def test_inner_node_never_passes_as_a_leaf():
    """The root of a two-answer tree is an inner node.  Offered as a
    one-leaf answer (empty path) it is refused, and a certificate on it
    without the path does not verify: leaves and nodes hash under
    different domains, so no answer's leaf is a node."""
    dep, client = _deploy(69)
    operation = ("set", "k", 1)
    nonce = client.submit(operation)
    leaf = reply_leaf(_digest(client, nonce, operation), ("ok", 1))
    other = reply_leaf(_digest(client, nonce + 1, operation), ("ok", 2))
    node, paths = reply_tree([leaf, other])
    assert reply_root(_digest(client, nonce, operation), ("ok", 1), ()) == (leaf, leaf)
    assert not _offer(dep, client, 3, nonce, ("ok", 1), _share(dep, 3, node), ())
    scheme = dep.keys.public.service_signature
    certificate = scheme.combine(
        tree_statement(node), {party: _share(dep, party, node) for party in (0, 1)}
    )
    public, cid = dep.keys.public, client.client_id
    assert not CompletedRequest(nonce, ("ok", 1), certificate).verify(public, cid, operation)
    assert CompletedRequest(nonce, ("ok", 1), certificate, paths[0]).verify(
        public, cid, operation
    )


def test_overlong_path_refused_before_hashing(monkeypatch):
    """A path of MAX_PATH + 1 steps is refused before anything is hashed
    — not the leaf, not a node, not the share's statement."""
    hashed = []
    real_sha256 = hashing.hashlib.sha256

    def sha256(data):
        hashed.append(data)
        return real_sha256(data)

    dep, client = _deploy(70)
    operation = ("set", "k", 1)
    nonce = client.submit(operation)
    digest = _digest(client, nonce, operation)
    path = ((False, bytes(32)),) * (MAX_PATH + 1)
    monkeypatch.setattr(hashing, "hashlib", SimpleNamespace(sha256=sha256))
    assert reply_root(digest, ("ok", 1), path) is None
    assert not _offer(dep, client, 3, nonce, ("ok", 1), Signature(commit=1, response=1), path)
    assert hashed == []
    # One step fewer is walked: the leaf and one node per step.
    assert reply_root(digest, ("ok", 1), path[1:]) is not None
    assert len(hashed) == MAX_PATH + 1


def test_swapped_path_fails_verification():
    """Two answers of one round share a signature, not a path: another
    request's path leads this answer's leaf to no signed root."""
    dep = build_service(4, KeyValueStore, t=1, seed=71, scheduler=FifoScheduler())
    client = dep.new_client()
    dep.network.start()
    # The first request opens round 1; the two behind it queue until it
    # delivers and then ride round 2 together.
    operations = [("set", "w", 0), ("set", "a", 1), ("set", "b", 2)]
    nonces = [client.submit(operation) for operation in operations]
    results = dep.run_until_complete(client, nonces)
    first, second = results[nonces[1]], results[nonces[2]]
    assert first.path and second.path and first.path != second.path
    public, cid = dep.keys.public, client.client_id
    assert first.verify(public, cid, operations[1])
    assert second.verify(public, cid, operations[2])
    assert not replace(first, path=second.path).verify(public, cid, operations[1])


def test_a_resubmitted_confidential_request_stays_encrypted():
    """A resubmission re-sends the ciphertext the request first went out
    as.  Rebuilt from the operation, it went out as a plain request,
    readable by every replica, corrupted ones included."""
    dep = build_service(4, KeyValueStore, t=1, seed=72)
    client = dep.new_client()
    sent = record_sends(dep.network)
    dep.network.start()
    nonce = client.submit_confidential(("set", "sealed", 1))
    assert client.resubmit(nonce)
    results = dep.run_until_complete(client, [nonce])
    submits = (SubmitRequest, SubmitEncrypted, SubmitUnordered)
    submitted = [m for m in sent if isinstance(m, submits)]
    assert len(submitted) == 8  # four replicas, twice
    assert all(isinstance(m, SubmitEncrypted) for m in submitted)
    assert {m.ciphertext for m in submitted} == {submitted[0].ciphertext}
    assert results[nonce].result == ("ok", 1)
    assert results[nonce].verify(dep.keys.public, client.client_id, ("set", "sealed", 1))
