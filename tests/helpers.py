"""Test utilities: building networks of runtimes around dealt keys."""

from __future__ import annotations

import contextlib
import random

from repro.core.protocol import Context, SessionId
from repro.core.runtime import ProtocolRuntime
from repro.crypto.dealer import SystemKeys
from repro.net.cluster import attach_client
from repro.net.runtime import ReplicaHost
from repro.net.scheduler import RandomScheduler, Scheduler
from repro.net.simulator import Network

__all__ = ["make_network", "spawn_all", "run_until_outputs", "record_sends",
           "record_executions", "ctx_for", "tcp_cluster"]


def make_network(
    keys: SystemKeys,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    parties: list[int] | None = None,
) -> tuple[Network, dict[int, ProtocolRuntime]]:
    """A fresh network with one runtime per server (or per listed party)."""
    network = Network(scheduler or RandomScheduler(), random.Random(seed))
    runtimes: dict[int, ProtocolRuntime] = {}
    for party in parties if parties is not None else range(keys.public.n):
        runtime = ProtocolRuntime(
            party, network, keys.public, keys.private[party], seed=seed
        )
        network.attach(party, runtime)
        runtimes[party] = runtime
    return network, runtimes


def spawn_all(runtimes, session: SessionId, factory) -> None:
    """Spawn ``factory(party)`` at the session on every runtime."""
    for party, runtime in runtimes.items():
        runtime.spawn(session, factory(party))


def run_until_outputs(
    network: Network,
    runtimes,
    session: SessionId,
    parties=None,
    max_steps: int = 300_000,
) -> dict[int, object]:
    """Run until every listed party has an output for the session."""
    waiting = list(parties) if parties is not None else list(runtimes)
    network.run(
        max_steps=max_steps,
        until=lambda: all(runtimes[p].result(session) is not None for p in waiting),
    )
    return {p: runtimes[p].result(session) for p in waiting}


def record_sends(network: Network, sessions: bool = False) -> list[object]:
    """Every protocol message handed to ``network.send`` from now on
    (``broadcast`` goes through ``send``), in send order; with
    ``sessions``, each as its ``(session, message)`` pair."""
    sent: list[object] = []
    send = network.send

    def recording(sender: int, recipient: int, payload: object) -> None:
        sent.append(payload if sessions else payload[1])
        send(sender, recipient, payload)

    network.send = recording
    return sent


def record_executions(target) -> list[tuple[object, object]]:
    """The ``(request, result)`` of every request executed from now on
    (replays included), in order, by ``target``: a ``Replica``, or a
    ``ReplicaHost``, whose hook the recorder then replaces too, so an
    epoch switch that reinstalls the hook keeps it."""
    executed: list[tuple[object, object]] = []
    replica = getattr(target, "replica", target)
    hook = replica.on_execute

    def recording(request, result, rnd) -> None:
        executed.append((request, result))
        if hook is not None:
            hook(request, result, rnd)

    replica.on_execute = recording
    if replica is not target:
        target._on_execute = recording
    return executed


def ctx_for(runtime: ProtocolRuntime, session: SessionId) -> Context:
    return Context(runtime, session)


@contextlib.asynccontextmanager
async def tcp_cluster(directory, client_seed: int, parties=range(4), **host_options):
    """In-process replica hosts over real sockets on a ready deployment
    directory, and a client attached once they listen.  Yields ``(hosts,
    client)``; on exit closes the client and every host then in the
    ``hosts`` dict (a test may swap one for a restarted incarnation)."""
    hosts = {p: ReplicaHost(directory, p, **host_options) for p in parties}
    for host in hosts.values():
        await host.start()
    client = await attach_client(directory, random.Random(client_seed))
    try:
        yield hosts, client
    finally:
        await client.network.close()
        for host in hosts.values():
            await host.close()
