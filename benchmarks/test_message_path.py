"""E18 — the message path per commit: frames, HMACs, socket calls and
loop turns on sockets, beside the simulator's message count.

Serial lone commits on an in-process n = 4 TCP cluster (the
``tests/helpers.tcp_cluster`` pattern: one ``ReplicaHost`` per server
and a client, all in this process on loopback, 256-bit group).  For the
measured commits — after a warm-up commit has opened every connection —
the transport's and asyncio's own functions are wrapped and counted:

* data frames (``transport.encode_data``) and standalone acks
  (``transport.encode_ack``);
* HMACs, made or checked (``transport._tag``);
* socket writes (``_SelectorSocketTransport.write``) and reads
  (``_read_ready__data_received``), for the whole process;
* event-loop turns (``BaseEventLoop._run_once``).

Beside them: the protocol messages the same commits sent (``send``
calls on every network, self-deliveries included) and what the same
number of lone commits costs on the simulator (``build_service`` under
a FIFO scheduler, same n and group).  Every count is for all five
parties together, so a socket write here is also a read there.  The
bounds are loose: a data frame needs one HMAC to make and one to check,
and acks ride on the reverse data.
"""

import asyncio
import random
from asyncio import base_events, selector_events

from conftest import emit

from repro.net import transport
from repro.net.cluster import attach_client, deal_deployment
from repro.net.runtime import ReplicaHost
from repro.net.scheduler import FifoScheduler
from repro.smr import KeyValueStore, build_service

N, T = 4, 1
COMMITS = 20


class _Counts:
    """Counts calls of functions by name while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.calls = dict.fromkeys(
            ("data", "acks", "hmacs", "writes", "reads", "turns"), 0
        )

    def wrap(self, monkeypatch, owner, attr, name) -> None:
        original = getattr(owner, attr)
        calls = self.calls

        def counting(*args, **kwargs):
            if self.armed:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)


async def _tcp_commits(directory, counts: _Counts) -> tuple[int, dict[str, int]]:
    hosts = {p: ReplicaHost(directory, p) for p in range(N)}
    for host in hosts.values():
        await host.start()
    client = await attach_client(directory, random.Random(18))
    networks = [client.network] + [host.network for host in hosts.values()]
    try:
        await client.call(("set", "warm-up", 0))
        sent = sum(net.trace.sent for net in networks)
        counts.armed = True
        for index in range(COMMITS):
            await client.call(("set", "key", index))
        # The last commit's tail: every replica has executed it.
        await client.network.wait_until(
            lambda: all(len(h.replica.executed) == COMMITS + 1 for h in hosts.values()),
            timeout=30,
        )
        counts.armed = False
        return sum(net.trace.sent for net in networks) - sent, dict(counts.calls)
    finally:
        counts.armed = False
        await client.network.close()
        for host in hosts.values():
            await host.close()


def _simulated_messages() -> int:
    service = build_service(N, KeyValueStore, t=T, seed=18, scheduler=FifoScheduler())
    client = service.new_client()
    service.network.start()
    service.run_until_complete(client, [client.submit(("set", "warm-up", 0))])
    service.network.run()
    before = service.network.trace.sent
    for index in range(COMMITS):
        service.run_until_complete(client, [client.submit(("set", "key", index))])
        service.network.run()  # quiescent: the next one rides alone
    return service.network.trace.sent - before


def test_message_path_per_commit(benchmark, monkeypatch, tmp_path):
    counts = _Counts()
    counts.wrap(monkeypatch, transport, "encode_data", "data")
    counts.wrap(monkeypatch, transport, "encode_ack", "acks")
    counts.wrap(monkeypatch, transport, "_tag", "hmacs")
    socket_transport = selector_events._SelectorSocketTransport
    counts.wrap(monkeypatch, socket_transport, "write", "writes")
    counts.wrap(monkeypatch, socket_transport, "_read_ready__data_received", "reads")
    counts.wrap(monkeypatch, base_events.BaseEventLoop, "_run_once", "turns")
    deal_deployment(tmp_path, N, T, random.Random(17))

    def run():
        return asyncio.run(_tcp_commits(tmp_path, counts))

    messages, calls = benchmark.pedantic(run, rounds=1, iterations=1)
    simulated = _simulated_messages()
    per = {name: value / COMMITS for name, value in calls.items()}
    emit(
        f"E18: the message path per commit (n = {N}, {COMMITS} serial lone "
        "commits, in-process TCP)",
        [
            f"{'msgs (sim)':>10} {'msgs (tcp)':>10} {'data':>7} {'acks':>6} "
            f"{'HMACs':>7} {'writes':>7} {'reads':>7} {'turns':>7}",
            f"{simulated / COMMITS:>10.1f} {messages / COMMITS:>10.1f} "
            f"{per['data']:>7.1f} {per['acks']:>6.1f} {per['hmacs']:>7.1f} "
            f"{per['writes']:>7.1f} {per['reads']:>7.1f} {per['turns']:>7.1f}",
        ],
    )
    assert calls["data"] <= messages
    assert calls["acks"] <= 0.10 * calls["data"]
    assert calls["hmacs"] <= 2.2 * calls["data"]
