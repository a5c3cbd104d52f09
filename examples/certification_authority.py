#!/usr/bin/env python
"""A distributed certification authority (Section 5.1), end to end.

Seven servers, two of them Byzantine (one silent, one spamming junk).
Users request certificates on their public keys; the CA enforces its
credential policy, issues threshold-signed certificates, serves
lookups, processes a policy change (which, being totally ordered,
cleanly splits "issued under policy v1" from "v2"), and revokes a
certificate.  The user verifies the certificate against the single
service verification key — no individual server is trusted.

Run:  python examples/certification_authority.py
"""

import random

from repro.apps import CaClient, CertificationAuthority
from repro.net import SilentNode, SpamNode
from repro.smr import build_service


def main() -> None:
    deployment = build_service(
        n=7, state_machine_factory=CertificationAuthority, t=2, seed=3
    )
    network = deployment.network

    # Two corrupted servers: one mute, one flooding garbage.
    deployment.controller.corrupt(network, 5, SilentNode())
    deployment.controller.corrupt(
        network,
        6,
        SpamNode(
            network,
            6,
            payload_factory=lambda rng: ("junk", rng.randrange(1 << 16)),
            rng=random.Random(13),
            fanout=2,
        ),
    )

    alice = CaClient(deployment.new_client())
    admin = CaClient(deployment.new_client())
    network.start()

    # 1. Policy enforcement: missing credentials are rejected.
    n_bad = alice.request_certificate("alice", 0xA11CE, {"name": "Alice"})
    # 2. A compliant request is certified.
    n_ok = alice.request_certificate(
        "alice", 0xA11CE, {"name": "Alice", "email": "alice@example.org"}
    )
    results = deployment.run_until_complete(alice.client, [n_bad, n_ok])
    print("incomplete credentials ->", results[n_bad].result)
    cert = CaClient.parse_certificate(results[n_ok])
    print("issued certificate     ->", cert)
    assert results[n_bad].result[0] == "denied" and cert is not None

    # The certificate reply is signed by the *service*: verifiable offline.
    assert results[n_ok].verify(
        deployment.keys.public,
        alice.client.client_id,
        ("issue", "alice", 0xA11CE, (("email", "alice@example.org"), ("name", "Alice"))),
    )
    print("threshold signature on certificate verifies: True")

    # 3. Policy change (administrative, totally ordered w.r.t. issuance).
    n_pol = admin.set_policy("name", "email", "employee_id")
    results = deployment.run_until_complete(admin.client, [n_pol])
    print("policy updated         ->", results[n_pol].result)

    n_old_style = alice.request_certificate(
        "bob", 0xB0B, {"name": "Bob", "email": "bob@example.org"}
    )
    n_new_style = alice.request_certificate(
        "carol",
        0xCA201,
        {"name": "Carol", "email": "carol@example.org", "employee_id": "E-1001"},
    )
    results = deployment.run_until_complete(alice.client, [n_old_style, n_new_style])
    print("old-policy request     ->", results[n_old_style].result)
    print("new-policy request     ->", results[n_new_style].result)
    assert results[n_old_style].result[0] == "denied"
    assert results[n_new_style].result[0] == "certificate"

    # 4. Revocation and status lookup.
    # The lookup is submitted only once the revocation completed: atomic
    # broadcast orders concurrent requests any way it likes.
    n_rev = admin.revoke(cert.serial, "key compromise")
    results = deployment.run_until_complete(admin.client, [n_rev])
    n_look = alice.lookup("alice")
    results.update(deployment.run_until_complete(alice.client, [n_look]))
    print("revocation             ->", results[n_rev].result)
    print("status after revocation->", results[n_look].result)
    assert results[n_look].result[1] == "revoked"

    snapshots = {r.state_machine.snapshot() for r in deployment.honest_replicas()}
    assert len(snapshots) == 1
    print("CA example OK —", network.delivered_count, "messages delivered,",
          "5 honest replicas in perfect agreement")


if __name__ == "__main__":
    main()
