"""Broadcast means the servers (Section 2: clients stand outside the
group and talk to it by request and signed reply).

On both backends a client sees only what a server addresses to it —
never another client's request riding in a batch, never a decryption
share — while the group's own membership changes still reach every
server the backend knows of, a joiner included.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.crypto.dealer import CLIENT_BASE, is_server
from repro.net.cluster import admit_joiner, deal_deployment
from repro.net.runtime import ReplicaHost, allocate_addresses
from repro.net.scheduler import FifoScheduler
from repro.net.simulator import Network
from repro.net.tracing import _kind_of
from repro.smr import KeyValueStore, build_service, reconfig
from repro.smr.client import ServiceClient

from ..helpers import tcp_cluster

CLIENT_KINDS = {"Reply", "EpochError", "MembershipInfo"}


def _record_kinds(client: ServiceClient) -> set[str]:
    """Every kind of message the network hands this client from now on."""
    kinds: set[str] = set()
    on_message = client.on_message

    def recording(sender: int, payload: object) -> None:
        kinds.add(_kind_of(payload))
        on_message(sender, payload)

    client.on_message = recording
    return kinds


def test_the_predicate_draws_the_dealers_line():
    assert is_server(0) and is_server(CLIENT_BASE - 1)
    assert not is_server(CLIENT_BASE) and not is_server(CLIENT_BASE + 7)


class _Sink:
    def __init__(self) -> None:
        self.received: list[object] = []

    def on_start(self) -> None:
        pass

    def on_message(self, sender: int, payload: object) -> None:
        self.received.append(payload)


def test_simulator_broadcast_skips_clients_but_parties_lists_them():
    net = Network(FifoScheduler(), random.Random(0))
    nodes = {party: _Sink() for party in (0, 1, 2, CLIENT_BASE)}
    for party, node in nodes.items():
        net.attach(party, node)
    net.broadcast(0, "to-the-group")
    net.send(0, CLIENT_BASE, "to-the-client")
    net.run()
    assert net.trace.sent == 4
    assert net.parties == [0, 1, 2, CLIENT_BASE]
    assert all(nodes[p].received == ["to-the-group"] for p in (0, 1, 2))
    assert nodes[CLIENT_BASE].received == ["to-the-client"]


@pytest.mark.parametrize("causal", [False, True], ids=["plain", "secure-causal"])
def test_simulator_client_receives_only_what_is_addressed_to_it(causal):
    deployment = build_service(4, KeyValueStore, t=1, causal=causal, seed=3)
    submit = "submit_confidential" if causal else "submit"
    first = deployment.new_client()
    seen = {first.client_id: _record_kinds(first)}
    deployment.network.start()
    nonce = getattr(first, submit)(("set", "k", 1))
    deployment.run_until_complete(first, [nonce], max_steps=900_000)
    # A second client attached mid-run, with traffic of its own while
    # the first is idle: neither sees the other's requests.
    second = deployment.new_client()
    seen[second.client_id] = _record_kinds(second)
    nonce = getattr(second, submit)(("get", "k"))
    results = deployment.run_until_complete(second, [nonce], max_steps=900_000)
    assert results[nonce].result == ("value", 1)
    deployment.network.run(max_steps=900_000)  # drain to quiescence
    assert seen[first.client_id] == {"Reply"}
    assert seen[second.client_id] == {"Reply"}
    by_kind = deployment.network.trace.sent_by_kind
    assert by_kind["AbcProposal"] and (not causal or by_kind["ScDecryptionShare"])


def _deployment(tmp_path, seed):
    return deal_deployment(tmp_path, 4, 1, random.Random(seed))


@pytest.mark.parametrize("causal", [False, True], ids=["plain", "secure-causal"])
def test_tcp_client_receives_only_what_is_addressed_to_it(tmp_path, causal):
    async def scenario():
        _deployment(tmp_path, seed=41)
        # The client connects to a cluster that is already running.
        async with tcp_cluster(tmp_path, 13, causal=causal) as (by_party, client):
            net, hosts = client.network, list(by_party.values())
            kinds = _record_kinds(client)
            submit = client.submit_confidential if causal else client.submit
            for operation in (("set", "k", 1), ("get", "k")):
                nonce = submit(operation)
                await net.wait_until(lambda: nonce in client.completed, timeout=60)
            assert client.completed[nonce].result == ("value", 1)
            await asyncio.sleep(0.2)  # stragglers, if any were addressed here
            assert kinds == {"Reply"}
            assert net.trace.delivered == sum(
                host.network.trace.sent_by_kind["Reply"] for host in hosts
            )
            sent = hosts[0].network.trace.sent_by_kind
            assert sent["AbcProposal"] and (not causal or sent["ScDecryptionShare"])
            # No server ever opened a channel to the client for anything
            # but replies: one frame per reply on it.
            for host in hosts:
                channel = host.network._channels[CLIENT_BASE]
                assert channel.next_seq == host.network.trace.sent_by_kind["Reply"]

    asyncio.run(scenario())


def test_reshare_reaches_the_joiner(tmp_path):
    """4 -> 5: the resharing is broadcast among the servers the network
    *knows*, so the admitted joiner takes part, adopts the epoch and
    serves — and the client still hears nothing but answers."""

    async def scenario():
        keys = _deployment(tmp_path, seed=51)
        joiner = 4
        async with tcp_cluster(tmp_path, client_seed=17) as (hosts, client):
            kinds = _record_kinds(client)
            first = await client.call(("set", "before", 1), timeout=60.0)
            assert first.result == ("ok", 1)

            rng = random.Random(61)
            address = allocate_addresses([joiner])[joiner]
            bundle = admit_joiner(tmp_path, joiner, address, rng, client)
            hosts[joiner] = ReplicaHost(tmp_path, joiner)
            await hosts[joiner].start()

            add = reconfig.reconfigure_operation(
                "add", 1, 0, keys.private[0].signing_key, rng,
                party=joiner, verify_key=bundle.signing_key.verify_key.h,
                host=address[0], port=address[1],
            )
            verdict = await client.call(add, timeout=60.0)
            assert verdict.result == ("reconfig", "accepted", 1)
            deadline = asyncio.get_running_loop().time() + 60
            while not all(host.epoch == 1 for host in hosts.values()):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)
            assert hosts[joiner].public.n == 5
            after = await client.call(("set", "after", 2), timeout=60.0)
            assert after.result == ("ok", 2)
            assert client.epoch == 1
            # The members' broadcasts now reach the joiner...
            assert joiner in hosts[0].network.addresses
            assert hosts[0].network._channels[joiner].next_seq > 0
            # ...and still not the client.
            assert kinds <= CLIENT_KINDS and "Reply" in kinds

    asyncio.run(scenario())
