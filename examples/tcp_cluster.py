#!/usr/bin/env python
"""The replica stack over real TCP sockets (docs/DEPLOYMENT.md).

Every other example runs on the deterministic simulator.  This one runs
the identical protocol stack — dealer, replicas, threshold-signed
replies, Section-6 crash recovery — over the asyncio TCP transport:
keys are dealt to JSON files, four replicas each listen on a localhost
socket with HMAC-authenticated channels, and a client submits
operations over the wire.  Mid-run one replica is torn down, the
cluster keeps serving with three, and a fresh replica rejoins on the
same address and recovers the history it missed.

(`python -m repro chaos run --scenario kill-recover` runs the same
lifecycle with one OS process per replica, judged by the chaos oracles;
here everything shares one event loop so the example stays fast and
portable.)

Run:  python examples/tcp_cluster.py
"""

import asyncio
import pathlib
import random
import tempfile

from repro.net.cluster import attach_client, deal_deployment
from repro.net.runtime import ReplicaHost


async def submit(net, client, operation):
    nonce = client.submit(operation)
    await net.wait_until(lambda: nonce in client.completed, timeout=60)
    reply = client.completed[nonce]
    # The answer carries the service's threshold signature — no single
    # server is trusted, even over raw sockets.
    assert reply.verify(client.public, client.client_id, operation)
    print(f"  {operation!r} -> {reply.result!r}")
    return reply.result


async def main_async(directory) -> None:
    print("dealing keys for n=4, t=1 plus one client identity")
    deal_deployment(directory, 4, 1, random.Random(42))

    hosts = {party: ReplicaHost(directory, party) for party in range(4)}
    for host in hosts.values():
        await host.start()
    print("4 replicas listening:",
          ", ".join(f"{p}@:{hosts[p].network.listen_address[1]}" for p in hosts))

    client = await attach_client(directory, random.Random(7))
    net = client.network
    net.trace.enable_byte_accounting()
    try:
        print("writes with the full cluster:")
        assert await submit(net, client, ("set", "alpha", 1)) == ("ok", 1)
        assert await submit(net, client, ("set", "beta", 2)) == ("ok", 2)

        print("replica 3 goes down (connections drop mid-protocol)")
        await hosts[3].close()
        print("the cluster keeps serving with 3 of 4 replicas:")
        assert await submit(net, client, ("set", "gamma", 3)) == ("ok", 3)

        print("a fresh replica 3 rejoins and runs Section-6 state transfer")
        hosts[3] = ReplicaHost(directory, 3)  # volatile state is gone
        await hosts[3].start(recover=True)
        assert await submit(net, client, ("get", "gamma")) == ("value", 3)

        deadline = asyncio.get_running_loop().time() + 30
        while hosts[3].replica.recovering or len(hosts[3].replica.executed) < 3:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.05)
        snapshot = dict(hosts[3].replica.state_machine.snapshot()[1])
        print(f"recovered replica's state: {snapshot}")
        assert snapshot == {"alpha": 1, "beta": 2, "gamma": 3}

        sent = net.trace.bytes_sent
        print(f"client sent {sent} payload bytes "
              "(identical accounting to the simulator)")
    finally:
        await net.close()
        for host in hosts.values():
            await host.close()
    print("TCP cluster with crash recovery OK")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-tcp-example-") as tmp:
        asyncio.run(main_async(pathlib.Path(tmp)))


if __name__ == "__main__":
    main()
