"""E9 — the trusted services of Section 5, measured end to end.

For each application (CA, directory, notary): requests completed,
messages per request, and client-side verification of the threshold-
signed answer — with one server Byzantine-silent throughout, since
tolerating that is the entire point.
"""

from conftest import emit

from repro.apps import (
    CaClient,
    CertificationAuthority,
    DirectoryClient,
    DirectoryService,
    NotaryClient,
    NotaryService,
)
from repro.net.adversary import SilentNode
from repro.smr import build_service


def _run_ca():
    dep = build_service(4, CertificationAuthority, t=1, seed=9400)
    dep.controller.corrupt(dep.network, 3, SilentNode())
    ca = CaClient(dep.new_client())
    dep.network.start()
    nonces = [
        ca.request_certificate(f"user{i}", 0x1000 + i, {"name": f"U{i}", "email": "e"})
        for i in range(3)
    ]
    results = dep.run_until_complete(ca.client, nonces, max_steps=1_500_000)
    certs = [CaClient.parse_certificate(results[n]) for n in nonces]
    dep.network.run(max_steps=1_500_000)  # drain so every replica executed
    return dep, len([c for c in certs if c]), dep.network.delivered_count


def _run_directory():
    dep = build_service(4, DirectoryService, t=1, seed=9401)
    dep.controller.corrupt(dep.network, 3, SilentNode())
    d = DirectoryClient(dep.new_client())
    dep.network.start()
    nonces = [d.bind(f"name{i}", f"value{i}") for i in range(3)]
    dep.run_until_complete(d.client, nonces, max_steps=1_500_000)
    nonces.append(d.resolve("name1"))  # sequenced after the binds
    results = dep.run_until_complete(d.client, nonces, max_steps=1_500_000)
    ok = sum(1 for n in nonces if results[n].result[0] in ("bound", "entry"))
    return dep, ok, dep.network.delivered_count


def _run_notary():
    dep = build_service(4, NotaryService, t=1, seed=9402)
    dep.controller.corrupt(dep.network, 3, SilentNode())
    notary = NotaryClient(dep.new_client(), confidential=True)
    dep.network.start()
    nonces = [notary.register(f"document-{i}".encode()) for i in range(3)]
    results = dep.run_until_complete(notary.client, nonces, max_steps=1_500_000)
    seqs = [results[n].result[1] for n in nonces]
    return dep, sorted(seqs), dep.network.delivered_count


def test_certification_authority(benchmark):
    dep, issued, delivered = benchmark.pedantic(_run_ca, rounds=1, iterations=1)
    emit(
        "Application: distributed CA (n=4, one server silent)",
        [
            f"certificates issued:    {issued}/3",
            f"messages delivered:     {delivered} ({delivered // 3} per request)",
            f"replicas consistent:    "
            f"{len({r.state_machine.snapshot() for r in dep.honest_replicas()}) == 1}",
        ],
    )
    assert issued == 3


def test_directory_service(benchmark):
    dep, ok, delivered = benchmark.pedantic(_run_directory, rounds=1, iterations=1)
    emit(
        "Application: secure directory (n=4, one server silent)",
        [
            f"operations completed:   {ok}/4",
            f"messages delivered:     {delivered}",
        ],
    )
    assert ok == 4


def test_notary_service(benchmark):
    dep, seqs, delivered = benchmark.pedantic(_run_notary, rounds=1, iterations=1)
    emit(
        "Application: confidential notary (n=4, one server silent, "
        "secure causal broadcast)",
        [
            f"sequence numbers issued: {seqs} (a logical clock)",
            f"messages delivered:      {delivered}",
        ],
    )
    assert seqs == [1, 2, 3]
