"""Applications running on the real replicated stack, with corruptions."""

from repro.apps import (
    AuthenticationClient,
    AuthenticationService,
    CaClient,
    CertificationAuthority,
    DirectoryClient,
    DirectoryService,
    FairExchangeClient,
    FairExchangeService,
    NotaryClient,
    NotaryService,
)
from repro.net.adversary import SilentNode
from repro.smr import build_service


def test_ca_issues_verifiable_certificate_with_silent_corruption():
    dep = build_service(4, CertificationAuthority, t=1, seed=21)
    dep.controller.corrupt(dep.network, 1, SilentNode())
    ca = CaClient(dep.new_client())
    dep.network.start()
    nonce = ca.request_certificate("alice", 0xA1, {"name": "A", "email": "a@x"})
    results = dep.run_until_complete(ca.client, [nonce])
    cert = CaClient.parse_certificate(results[nonce])
    assert cert is not None and cert.subject == "alice"
    assert results[nonce].verify(
        dep.keys.public,
        ca.client.client_id,
        ("issue", "alice", 0xA1, (("email", "a@x"), ("name", "A"))),
    )


def test_directory_ownership_enforced_across_clients():
    dep = build_service(4, DirectoryService, t=1, seed=22)
    d1 = DirectoryClient(dep.new_client())
    d2 = DirectoryClient(dep.new_client())
    dep.network.start()
    n1 = d1.bind("name", "v1")
    dep.run_until_complete(d1.client, [n1])
    n2 = d2.rebind("name", "hijack")
    results = dep.run_until_complete(d2.client, [n2])
    assert results[n2].result == ("denied", "not owner")


def test_notary_confidential_registration_end_to_end():
    dep = build_service(4, NotaryService, t=1, seed=23)
    notary = NotaryClient(dep.new_client(), confidential=True)
    dep.network.start()
    nonce = notary.register(b"the great invention")
    results = dep.run_until_complete(notary.client, [nonce])
    tag, seq, _digest, registrant, first = results[nonce].result
    assert (tag, seq, first) == ("registered", 1, True)
    assert registrant == notary.client.client_id


def test_authentication_lockout_is_replicated():
    dep = build_service(4, AuthenticationService, t=1, seed=24)
    auth = AuthenticationClient(dep.new_client())
    dep.network.start()
    nonces = [auth.enroll("bob", b"pw")]
    dep.run_until_complete(auth.client, nonces)
    bad = [auth.authenticate("bob", b"wrong") for _ in range(5)]
    dep.run_until_complete(auth.client, bad)
    final = auth.authenticate("bob", b"pw")
    results = dep.run_until_complete(auth.client, [final])
    assert results[final].result == ("denied", "locked")
    dep.network.run(max_steps=400_000)
    snapshots = {r.state_machine.snapshot() for r in dep.honest_replicas()}
    assert len(snapshots) == 1


def test_fair_exchange_end_to_end():
    dep = build_service(4, FairExchangeService, t=1, seed=25)
    a = FairExchangeClient(dep.new_client())
    b = FairExchangeClient(dep.new_client())
    dep.network.start()
    dep.run_until_complete(a.client, [a.offer("x", "A-item", "B-item", b.client.client_id)])
    dep.run_until_complete(b.client, [b.accept("x", "B-item")])
    na, nb = a.collect("x"), b.collect("x")
    ra = dep.run_until_complete(a.client, [na])
    rb = dep.run_until_complete(b.client, [nb])
    assert ra[na].result == ("item", "x", "B-item")
    assert rb[nb].result == ("item", "x", "A-item")


def test_generalized_structure_service_with_class_corruption(keys_example1):
    """Directory on the Example 1 structure, whole class a silenced."""
    import random

    from repro.core.runtime import ProtocolRuntime
    from repro.net.scheduler import RandomScheduler
    from repro.net.simulator import Network
    from repro.smr.client import ServiceClient
    from repro.smr.replica import Replica, service_session

    net = Network(RandomScheduler(), random.Random(5))
    for i in range(4, 9):
        rt = ProtocolRuntime(i, net, keys_example1.public, keys_example1.private[i], seed=2)
        net.attach(i, rt)
        rt.spawn(service_session(), Replica(DirectoryService()))
    for bad in range(4):
        net.attach(bad, SilentNode())
    client = ServiceClient(1000, net, keys_example1.public, random.Random(6))
    net.attach(1000, client)
    net.start()
    nonce = client.submit(("bind", "multi-site", "ok"))
    net.run(until=lambda: nonce in client.completed, max_steps=600_000)
    assert client.completed[nonce].result == ("bound", "multi-site", 1)
