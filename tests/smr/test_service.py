"""End-to-end state machine replication: clients, replicas, signatures."""

import random

import pytest

from repro.core.atomic_broadcast import AbcConfig, payload_digest
from repro.net.adversary import SilentNode
from repro.net.scheduler import DelayScheduler, FifoScheduler, RandomScheduler, ReorderScheduler
from repro.smr import KeyValueStore, build_service
from repro.smr.client import ServiceClient
from repro.smr.replica import reply_root
from repro.smr.state_machine import Request

from ..helpers import record_executions


def test_basic_request_reply():
    dep = build_service(4, KeyValueStore, t=1, seed=1)
    client = dep.new_client()
    dep.network.start()
    n1 = client.submit(("set", "k", "v"))
    n2 = client.submit(("get", "k"))
    results = dep.run_until_complete(client, [n1, n2])
    assert results[n1].result == ("ok", 1)
    assert results[n2].result == ("value", "v")


def test_reply_signature_verifies():
    dep = build_service(4, KeyValueStore, t=1, seed=2)
    client = dep.new_client()
    dep.network.start()
    nonce = client.submit(("set", "a", 7))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].verify(dep.keys.public, client.client_id, ("set", "a", 7))
    # Signature does not verify for a different operation.
    assert not results[nonce].verify(dep.keys.public, client.client_id, ("set", "a", 8))


def test_replicas_stay_consistent():
    dep = build_service(4, KeyValueStore, t=1, seed=3)
    client = dep.new_client()
    dep.network.start()
    nonces = [client.submit(("set", f"k{i}", i)) for i in range(5)]
    dep.run_until_complete(client, nonces)
    dep.network.run(max_steps=400_000)  # drain
    snapshots = {r.state_machine.snapshot() for r in dep.honest_replicas()}
    assert len(snapshots) == 1


def test_tolerates_silent_replica():
    dep = build_service(4, KeyValueStore, t=1, seed=4)
    dep.controller.corrupt(dep.network, 2, SilentNode())
    client = dep.new_client()
    dep.network.start()
    nonce = client.submit(("set", "x", 1))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("ok", 1)


def test_submission_to_partial_server_set():
    """The paper: the client must contact more than t servers.  Sending
    to t+1 honest servers suffices for delivery."""
    dep = build_service(4, KeyValueStore, t=1, seed=5)
    client = dep.new_client()
    dep.network.start()
    nonce = client.submit(("set", "x", 1), servers=[0, 1])
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("ok", 1)


def test_adversarial_scheduler_end_to_end():
    dep = build_service(4, KeyValueStore, t=1, scheduler=ReorderScheduler(), seed=6)
    client = dep.new_client()
    dep.network.start()
    nonces = [client.submit(("set", f"k{i}", i)) for i in range(3)]
    results = dep.run_until_complete(client, nonces)
    assert all(results[n].result[0] == "ok" for n in nonces)


def test_delayed_server_end_to_end():
    dep = build_service(4, KeyValueStore, t=1, scheduler=DelayScheduler({0}), seed=7)
    client = dep.new_client()
    dep.network.start()
    nonce = client.submit(("get", "whatever"))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("value", None)


def test_multiple_clients_interleave():
    dep = build_service(4, KeyValueStore, t=1, seed=8)
    c1, c2 = dep.new_client(), dep.new_client()
    dep.network.start()
    n1 = c1.submit(("set", "owner", "c1"))
    n2 = c2.submit(("set", "owner", "c2"))
    dep.run_until_complete(c1, [n1])
    dep.run_until_complete(c2, [n2])
    # Both writes applied in some agreed order; versions distinct.
    assert {c1.completed[n1].result[1], c2.completed[n2].result[1]} == {1, 2}


def test_a_reused_nonce_gets_no_answer_for_another_operation():
    """A new client process at the same id counting nonces from 1 again:
    the replicas' answer cache re-answers only the identical request, so
    a different operation under an executed nonce gets no service-signed
    answer (and is not executed), while the original is re-answered."""
    dep = build_service(4, KeyValueStore, t=1, seed=13)
    first = dep.new_client()
    dep.network.start()
    nonce = first.submit(("set", "a", 1))
    dep.run_until_complete(first, [nonce])
    second = ServiceClient(
        first.client_id, dep.network, dep.keys.public, random.Random(14)
    )
    dep.network.nodes[first.client_id] = second  # the new process
    assert second.submit(("set", "b", 2)) == nonce
    dep.network.run(max_steps=400_000)
    assert nonce not in second.completed
    for replica in dep.honest_replicas():
        assert dict(replica.state_machine.snapshot()[1]) == {"a": 1}
    third = ServiceClient(
        first.client_id, dep.network, dep.keys.public, random.Random(15)
    )
    dep.network.nodes[first.client_id] = third
    third.submit(("set", "a", 1))
    results = dep.run_until_complete(third, [nonce])
    assert results[nonce].result == ("ok", 1)
    assert results[nonce].verify(dep.keys.public, first.client_id, ("set", "a", 1))


def test_duplicate_nonce_executes_once():
    """A request submitted to all servers is delivered exactly once
    despite reaching the queue at four places."""
    dep = build_service(4, KeyValueStore, t=1, seed=9)
    executed = record_executions(dep.honest_replicas()[0])
    client = dep.new_client()
    dep.network.start()
    nonce = client.submit(("set", "ctr", 1))
    dep.run_until_complete(client, [nonce])
    dep.network.run(max_steps=400_000)
    executions = [r for r, _ in executed if r.nonce == nonce]
    assert len(executions) == 1


def test_causal_mode_end_to_end():
    dep = build_service(4, KeyValueStore, t=1, causal=True, seed=10)
    client = dep.new_client()
    dep.network.start()
    n1 = client.submit_confidential(("set", "secret", 42))
    dep.run_until_complete(client, [n1])  # sequence the dependent read
    n2 = client.submit_confidential(("get", "secret"))
    results = dep.run_until_complete(client, [n2])
    assert client.completed[n1].result == ("ok", 1)
    assert results[n2].result == ("value", 42)


def _record_s_deliveries(replica) -> list[bytes]:
    """Every plaintext ``replica``'s secure causal broadcast s-delivers
    from now on, in order."""
    seen: list[bytes] = []
    deliver = replica.sc_abc.on_deliver

    def recording(plaintext: bytes, rnd: int) -> None:
        seen.append(plaintext)
        deliver(plaintext, rnd)

    replica.sc_abc.on_deliver = recording
    return seen


def test_causal_mode_skips_a_plaintext_nested_past_the_codec_bound():
    """A Byzantine client encrypts 1,000 nested tuples (5 KB).  The bytes
    are ordered and decrypted like any request; the one reader refuses
    them at its depth bound, so every replica skips the slot — where
    the request codec this path once had recursed without a bound and
    ``RecursionError`` left the handler on every honest replica — and
    the next request commits."""
    from repro import codec
    from repro.smr.replica import SubmitEncrypted

    dep = build_service(4, KeyValueStore, t=1, causal=True, seed=12)
    executed = [record_executions(r) for r in dep.honest_replicas()]
    client = dep.new_client()
    dep.network.start()
    s_delivered = [_record_s_deliveries(r) for r in dep.honest_replicas()]
    bomb = b"L\x00\x00\x00\x01" * 1000 + b"N"
    label = codec.dumps(("client", client.client_id, 0))
    ciphertext = dep.keys.public.encryption.encrypt(bomb, label, client.rng)
    for server in range(4):
        dep.network.send(
            client.client_id, server, (client.session, SubmitEncrypted(ciphertext))
        )
    dep.network.run(max_steps=400_000)  # no handler raises
    for replica, seen in zip(dep.honest_replicas(), s_delivered):
        assert seen == [bomb]  # ordered and decrypted everywhere, executed nowhere
        assert not replica.executed
    nonce = client.submit_confidential(("set", "after", 1))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("ok", 1)
    dep.network.run(max_steps=400_000)
    assert len({tuple(log) for log in executed}) == 1


def test_causal_replica_orders_through_its_one_configured_broadcast():
    """``abc_config`` reaches the broadcast a confidential service
    orders through, and ``replica.abc`` is that broadcast: with
    ``max_batch=1`` no proposal carries two ciphertexts, and the
    statistics the host prints count the rounds that ordered them."""
    from repro.core.atomic_broadcast import AbcConfig, AbcProposal

    from ..helpers import record_sends

    dep = build_service(
        4, KeyValueStore, t=1, causal=True, seed=3, abc_config=AbcConfig(max_batch=1)
    )
    client = dep.new_client()
    dep.network.start()
    nonces = [client.submit_confidential(("set", f"k{i}", i)) for i in range(6)]
    sent = record_sends(dep.network)
    dep.run_until_complete(client, nonces)
    proposals = [m for m in sent if isinstance(m, AbcProposal)]
    assert proposals and max(len(m.batch) for m in proposals) == 1
    for replica in dep.honest_replicas():
        assert replica.abc.config.max_batch == 1
        assert replica.abc.stats()["rounds"] > 0


def test_causal_mode_refuses_plaintext():
    dep = build_service(4, KeyValueStore, t=1, causal=True, seed=11)
    client = dep.new_client()
    dep.network.start()
    client.submit(("set", "leak", 1))
    dep.network.run(max_steps=200_000)
    assert all(not r.executed for r in dep.honest_replicas())


def test_answers_of_one_round_share_one_certified_root():
    """Replies are certified by quorum certificates on the root of a
    round's answer tree: requests that ride one round each get their own
    path to that one root, and a request sent alone gets a one-leaf
    tree whose root is its leaf."""
    dep = build_service(4, KeyValueStore, t=1, seed=5, scheduler=FifoScheduler())
    client = dep.new_client()
    dep.network.start()
    operations = [("set", "w", 0), ("set", "k", 1), ("set", "a", 2), ("set", "b", 3), ("get", "k")]
    nonces = [client.submit(operation) for operation in operations]
    results = dep.run_until_complete(client, nonces)
    alone = client.submit(("get", "a"))
    results.update(dep.run_until_complete(client, [alone]))
    operations.append(("get", "a"))
    nonces.append(alone)
    completed = [results[nonce] for nonce in nonces]
    assert [c.result for c in completed] == [
        ("ok", 1), ("ok", 2), ("ok", 3), ("ok", 4), ("value", 1), ("value", 2)
    ]
    public, cid = dep.keys.public, client.client_id
    roots = []
    for nonce, operation, answer in zip(nonces, operations, completed):
        assert answer.verify(public, cid, operation)
        digest = payload_digest(Request(cid, nonce, operation).encode())
        leaf, root = reply_root(digest, answer.result, answer.path)
        roots.append(root)
        assert public.quorum.contains_honest(answer.signature.signers)
    shared = completed[:5]
    assert all(c.path for c in shared) and len({c.path for c in shared}) == 5
    assert len(set(roots[:5])) == 1
    assert completed[5].path == () and roots[5] == leaf


# One agreement round at n = 4 under FIFO delivery, client traffic
# included (4 requests in, 4 replies out): what a lone request costs.
ONE_ROUND_MESSAGES = 184


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_lone_request_rides_one_round(scheduler, seed):
    """One request at a time through the whole service, the network
    quiescent between requests: one round each, however the client's
    copies and the replicas' proposals interleave.  The message budget
    leaves room for a vote that was not unanimous (extra voting rounds),
    not for a second agreement round (2.57 rounds and 561 messages per
    request under the random schedule before a proposal was also a
    submission)."""
    dep = build_service(
        4, KeyValueStore, t=1, seed=seed, scheduler=scheduler(),
        abc_config=AbcConfig(pipeline_depth=4),
    )
    client = dep.new_client()
    dep.network.start()
    requests = 6
    for i in range(requests):
        nonce = client.submit(("set", "k", i))
        dep.run_until_complete(client, [nonce])
        dep.network.run(max_steps=400_000)  # to quiescence
    assert [r.abc.rounds_delivered for r in dep.replicas.values()] == [requests] * 4
    assert dep.network.delivered_count <= 1.5 * ONE_ROUND_MESSAGES * requests
