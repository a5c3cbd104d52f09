"""Confidential requests on deployment hosts: a restart and a refresh.

Every host orders plain and encrypted requests through one broadcast,
so a host with confidential history checkpoints, restarts and recovers
like any other, and an epoch change that shares a round with a
ciphertext keeps input causality.  Four ``ReplicaHost``s share one
simulated network; every test runs under ``asyncio.run`` inside a plain
pytest function.
"""

from __future__ import annotations

import asyncio
import random

from repro.core.secure_causal import ScDecryptionShare
from repro.crypto.dealer import CLIENT_BASE
from repro.net.cluster import deal_deployment
from repro.net.runtime import ReplicaHost, current_membership
from repro.net.scheduler import FifoScheduler, RandomScheduler
from repro.net.simulator import Network
from repro.smr import reconfig
from repro.smr.client import ServiceClient
from repro.smr.reconfig import epoch_service_session

from ..helpers import record_sends

PARTIES = range(4)


def _deploy(tmp_path, seed, scheduler, checkpoint_every=0):
    """Four started hosts on one simulated network, and a client."""
    addresses = {p: ("127.0.0.1", 20_000 + p) for p in (*PARTIES, CLIENT_BASE)}
    keys = deal_deployment(tmp_path, 4, 1, random.Random(seed), addresses=addresses)
    network = Network(scheduler, random.Random(seed))
    hosts = {
        p: ReplicaHost(tmp_path, p, network=network, checkpoint_every=checkpoint_every)
        for p in PARTIES
    }
    for host in hosts.values():
        asyncio.run(host.start())
    epoch, public = current_membership(tmp_path)
    client = ServiceClient(CLIENT_BASE, network, public, random.Random(seed + 1), epoch)
    network.attach(CLIENT_BASE, client)
    return keys, network, hosts, client


def _commit(network, client, nonces):
    network.run(until=lambda: all(n in client.completed for n in nonces), max_steps=400_000)
    network.run(max_steps=400_000)


def _restart(tmp_path, network, party, checkpoint_every):
    network.crash(party)
    host = ReplicaHost(tmp_path, party, network=network, checkpoint_every=checkpoint_every)
    asyncio.run(host.start(recover=True))
    return host


def _executions(host) -> list[tuple]:
    """``(operation, result, epoch)`` of every request ``host`` executes
    from now on, replays included; kept across an epoch switch."""
    log: list[tuple] = []
    hook = host.replica.on_execute

    def recording(request, result, rnd) -> None:
        log.append((request.operation, result, host.epoch))
        hook(request, result, rnd)

    host.replica.on_execute = host._on_execute = recording
    return log


def test_a_host_restarted_after_confidential_requests_recovers(tmp_path):
    """Plain and confidential writes, checkpointed every two executions:
    a killed host restarts from its checkpoint, which holds the opened
    plaintexts, says ``replica-recovered`` and reaches its peers' state."""
    _keys, network, hosts, client = _deploy(tmp_path, 61, RandomScheduler(), 2)
    nonces = [
        (client.submit_confidential if i % 2 else client.submit)(("set", f"k{i}", i))
        for i in range(5)
    ]
    _commit(network, client, nonces)
    assert hosts[3].checkpoint_status == "absent" and hosts[3]._checkpoint is not None
    asyncio.run(hosts[3].close())
    hosts[3] = _restart(tmp_path, network, 3, 2)
    assert hosts[3].checkpoint_status == "loaded"
    network.run(max_steps=400_000)
    kinds = [kind for kind, _fields in hosts[3].events]
    assert "replica-recovered" in kinds
    assert not hosts[3].replica.recovering
    snapshots = {h.replica.state_machine.snapshot() for h in hosts.values()}
    assert snapshots == {(5, tuple((f"k{i}", i) for i in range(5)))}
    _commit(network, client, [client.submit_confidential(("set", "after", 5))])
    assert len({h.replica.state_machine.snapshot() for h in hosts.values()}) == 1


def test_a_confidential_request_ordered_while_a_host_is_down_executes_there(tmp_path):
    """The host is down while a ciphertext is ordered and opened, so it
    misses every decryption share; recovery hands it the plaintext
    beside the ciphertext, and it executes the request."""
    _keys, network, hosts, client = _deploy(tmp_path, 62, RandomScheduler())
    _commit(network, client, [client.submit(("set", "before", 0))])
    network.crash(2)
    asyncio.run(hosts[2].close())
    _commit(network, client, [client.submit_confidential(("set", "secret", 1))])
    hosts[2] = _restart(tmp_path, network, 2, 0)
    network.run(max_steps=400_000)
    assert not hosts[2].replica.recovering
    assert hosts[2].replica.state_machine.data == {"before": 0, "secret": 1}
    _commit(network, client, [client.submit_confidential(("set", "after", 2))])
    assert len({h.replica.state_machine.snapshot() for h in hosts.values()}) == 1


def _refresh(keys, network, hosts, client, burst):
    """Submit ``burst`` in one go — ``"refresh"`` (a plaintext refresh
    for epoch 1) and operations, those under ``"confidential"`` sent
    encrypted — and run until every host entered epoch 1 and executed
    all of it.  The operations every host executed, with their epochs."""
    logs = {p: _executions(h) for p, h in hosts.items()}
    refresh = reconfig.reconfigure_operation(
        "refresh", 1, 0, keys.private[0].signing_key, random.Random(9)
    )
    for kind, operation in burst:
        if kind == "refresh":
            client.submit(refresh)
        elif kind == "confidential":
            client.submit_confidential(operation)
        else:
            client.submit(operation)
    network.run(
        until=lambda: all(
            h.epoch == 1 and len(logs[p]) == len(burst) for p, h in hosts.items()
        ),
        max_steps=2_000_000,
    )
    executed = {tuple((op, epoch) for op, _result, epoch in log) for log in logs.values()}
    assert len(executed) == 1
    return [("refresh" if op == refresh else op, epoch) for op, epoch in executed.pop()]


def test_a_refresh_behind_a_confidential_request_in_one_round(tmp_path):
    """One round: a ciphertext, a plaintext refresh and a plain write.
    The round waits until the ciphertext ahead of the refresh opened, so
    the refresh executes inside the round's delivery: the ciphertext
    executes once, in the old epoch, and the write behind the refresh
    goes back to the queue and executes in the new one."""
    keys, network, hosts, client = _deploy(tmp_path, 63, FifoScheduler())
    secret, public = ("set", "secret", 1), ("set", "public", 2)
    executed = _refresh(keys, network, hosts, client, [
        ("confidential", secret), ("refresh", None), ("plain", public),
    ])
    assert executed == [(secret, 0), ("refresh", 0), (public, 1)]
    for host in hosts.values():
        assert sorted(host.replica.abc.delivered.values()) == [1, 1, 2]


def test_a_confidential_request_behind_a_refresh_opens_in_the_new_epoch(tmp_path):
    """The refresh closes the session inside the round's delivery; the
    ciphertext behind it goes back to the queue still encrypted: no
    host sends a share for it on the closed session, and it executes
    once, in the new epoch."""
    keys, network, hosts, client = _deploy(tmp_path, 64, FifoScheduler())
    sent = record_sends(network, sessions=True)
    secret = ("set", "secret", 1)
    executed = _refresh(keys, network, hosts, client, [
        ("refresh", None), ("confidential", secret),
    ])
    assert executed == [("refresh", 0), (secret, 1)]
    shares = [session for session, message in sent if isinstance(message, ScDecryptionShare)]
    assert shares and set(shares) == {epoch_service_session(1)}


def test_no_share_leaves_for_a_ciphertext_between_two_reconfigurations(tmp_path):
    """One round: a signed refresh, a ciphertext, then a second
    ``Reconfigure`` — forged, or signed and valid until the first one
    closes the session.  Only what precedes the first reconfiguration
    that closes the session opens in the old epoch, so no host sends a
    share for the ciphertext on the closed session, and it executes
    once, in the new epoch."""
    for seed, signer in ((66, None), (67, 1)):
        keys, network, hosts, client = _deploy(tmp_path / str(seed), seed, FifoScheduler())
        sent = record_sends(network, sessions=True)
        # Signed by party 0 in party 1's name (forged), or by party 1.
        second = reconfig.reconfigure_operation(
            "refresh", 1, 1 if signer is None else signer,
            keys.private[0 if signer is None else signer].signing_key, random.Random(8),
        )
        secret = ("set", "secret", 1)
        executed = _refresh(keys, network, hosts, client, [
            ("refresh", None), ("confidential", secret), ("plain", second),
        ])
        assert executed == [("refresh", 0), (secret, 1), (second, 1)]
        shares = [session for session, message in sent if isinstance(message, ScDecryptionShare)]
        assert shares and set(shares) == {epoch_service_session(1)}


def test_a_forged_reconfiguration_holds_no_round(tmp_path):
    """A ``Reconfigure`` the membership rejects is no barrier: ahead of
    a ciphertext and a signed refresh in one round, it executes and is
    rejected, the ciphertext opens in the old epoch, and the refresh
    still closes the session inside the round's delivery."""
    keys, network, hosts, client = _deploy(tmp_path, 68, FifoScheduler())
    forged = reconfig.reconfigure_operation(
        "refresh", 1, 1, keys.private[0].signing_key, random.Random(8)
    )
    secret, public = ("set", "secret", 1), ("set", "public", 2)
    executed = _refresh(keys, network, hosts, client, [
        ("plain", forged), ("confidential", secret), ("refresh", None), ("plain", public),
    ])
    assert executed == [(forged, 0), (secret, 0), ("refresh", 0), (public, 1)]
    for host in hosts.values():
        assert sorted(host.replica.abc.delivered.values()) == [1, 1, 1, 2]


def test_an_encrypted_reconfiguration_is_rejected(tmp_path):
    """A reconfiguration is public: one that arrives encrypted is
    ordered and opened like any request, and answered ``rejected``."""
    keys, network, hosts, client = _deploy(tmp_path, 65, FifoScheduler())
    logs = {p: _executions(h) for p, h in hosts.items()}
    refresh = reconfig.reconfigure_operation(
        "refresh", 1, 0, keys.private[0].signing_key, random.Random(9)
    )
    nonce = client.submit_confidential(refresh)
    _commit(network, client, [nonce])
    assert client.completed[nonce].result == ("reconfig", "rejected", 0)
    assert all(h.epoch == 0 for h in hosts.values())
    assert all(log == [(refresh, ("reconfig", "rejected", 0), 0)] for log in logs.values())
