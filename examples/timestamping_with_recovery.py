#!/usr/bin/env python
"""Hash-linked time-stamping plus crash recovery (Sections 5.2 and 6).

A four-server time-stamping service issues stamps whose hash chain
makes the history tamper-evident.  Mid-run, one server crashes and
loses its volatile state; after more stamps are issued, a fresh replica
rejoins, performs the Section 6 crash-recovery state transfer (adopting
the delivery log endorsed by an honest-containing set of peers), and
rebuilds the identical chain — verified client-side from genesis.

Run:  python examples/timestamping_with_recovery.py
"""

from repro.apps.timestamping import (
    GENESIS,
    TimestampClient,
    TimestampingService,
    verify_chain_segment,
)
from repro.smr import build_service


def main() -> None:
    deployment = build_service(4, TimestampingService, t=1, seed=77)
    client = TimestampClient(deployment.new_client())
    deployment.network.start()

    # Phase 1: two stamps while everyone is up.
    for doc in (b"design v1", b"design v2"):
        deployment.run_until_complete(client.client, [client.stamp(doc)])
    deployment.network.run(max_steps=400_000)
    print("stamps issued:", deployment.replicas[0].state_machine.sequence)

    # Phase 2: server 3 crashes (volatile state gone) and misses a stamp.
    deployment.network.crash(3)
    print("server 3 crashed")
    deployment.run_until_complete(client.client, [client.stamp(b"design v3")])
    deployment.network.run(max_steps=400_000)

    # Phase 3: a fresh replica rejoins and runs state transfer.
    fresh = deployment.rejoin(3, seed=123)
    deployment.network.run(max_steps=400_000)
    print("server 3 recovered; chain length:",
          fresh.state_machine.sequence)

    # Phase 4: the recovered server participates in new stamps.
    deployment.run_until_complete(client.client, [client.stamp(b"design v4")])
    deployment.network.run(max_steps=400_000)

    heads = {r.state_machine.head for r in deployment.replicas.values()}
    print("all four replicas share one chain head:", len(heads) == 1)

    # Client-side audit of the recovered server's chain, from genesis.
    records = fresh.state_machine.records
    ok = verify_chain_segment(records, GENESIS)
    print(f"client-side audit of {len(records)} records from genesis:", ok)

    assert len(heads) == 1 and ok and fresh.state_machine.sequence == 4
    print("timestamping + crash recovery OK")


if __name__ == "__main__":
    main()
