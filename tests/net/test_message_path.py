"""The TCP message path in exact counts: E18's lone commits, pinned.

Serial lone commits on an in-process TCP cluster, at n = 4 and n = 7
(one ``ReplicaHost`` per server and a client, all in this process on
loopback, 256-bit group).  For the measured commits — after a warm-up
commit has opened every connection — the transport's and asyncio's own
functions are wrapped and counted:

* data frames (``transport.encode_data``) and standalone acks
  (``transport.encode_ack``);
* HMACs, made or checked (``transport._tag``);
* socket writes (``_SelectorSocketTransport.write``) and reads
  (``_read_ready__data_received``), for the whole process;
* event-loop turns (``BaseEventLoop._run_once``);

and beside them the protocol messages the same commits sent (``send``
calls on every network, self-deliveries included).  Every count is for
all n + 1 parties together, so a socket write here is also a read there.

The counts fixed by the protocol and its framing are pinned: the
protocol messages, the data frames that carry the ones bound for
another party, and two HMACs (one made, one checked) for each frame.
The other four are not pinned, although all four repeated exactly over
fourteen runs at n = 4 (and five at n = 7) on one 2-core host under
Python 3.11: standalone acks are
held to E18's loose bound (at most one for ten data frames), because a
stall of more than the transport's ack delay (0.2 s) between two frames
sends one, and a frame more to tag; socket
writes and reads follow how the kernel merges loopback traffic; and
loop turns count calls of a private asyncio function.  E18
(``benchmarks/test_message_path.py``) prints all seven per commit
beside the simulator's message count.
"""

from __future__ import annotations

import asyncio
import random
from asyncio import base_events, selector_events

import pytest

from repro.net import transport
from repro.net.cluster import attach_client, deal_deployment
from repro.net.runtime import ReplicaHost

N, T = 4, 1
COMMITS = 20

# For the 20 commits, by n: the simulator's count of protocol messages
# for a lone commit under FIFO (184 at n = 4, 553 at n = 7), and the ones
# in data frames (140 and 476); the rest are self-deliveries, which
# never reach a socket.
PINNED = {
    4: {"messages": 184 * COMMITS, "data": 140 * COMMITS},
    7: {"messages": 553 * COMMITS, "data": 476 * COMMITS},
}


class MessagePathCounts:
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


async def _tcp_commits(directory, counts: MessagePathCounts, n: int) -> int:
    hosts = {p: ReplicaHost(directory, p) for p in range(n)}
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
        # Every honest message has its declared types.
        assert sum(net.trace.counters["admission.dropped"] for net in networks) == 0
        return sum(net.trace.sent for net in networks) - sent
    finally:
        counts.armed = False
        await client.network.close()
        for host in hosts.values():
            await host.close()


def count_message_path(monkeypatch, directory, n=N, t=T) -> tuple[int, dict[str, int]]:
    """Deal an ``n``-server deployment into ``directory`` and commit
    ``COMMITS`` lone requests on it; the messages they sent and the
    calls counted."""
    counts = MessagePathCounts()
    counts.wrap(monkeypatch, transport, "encode_data", "data")
    counts.wrap(monkeypatch, transport, "encode_ack", "acks")
    counts.wrap(monkeypatch, transport, "_tag", "hmacs")
    socket_transport = selector_events._SelectorSocketTransport
    counts.wrap(monkeypatch, socket_transport, "write", "writes")
    counts.wrap(monkeypatch, socket_transport, "_read_ready__data_received", "reads")
    counts.wrap(monkeypatch, base_events.BaseEventLoop, "_run_once", "turns")
    deal_deployment(directory, n, t, random.Random(17))
    messages = asyncio.run(_tcp_commits(directory, counts, n))
    return messages, dict(counts.calls)


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_lone_commits_cost_exactly_these_messages_frames_and_hmacs(monkeypatch, tmp_path, n, t):
    messages, calls = count_message_path(monkeypatch, tmp_path, n, t)
    assert {"messages": messages, "data": calls["data"]} == PINNED[n]
    assert calls["hmacs"] == 2 * (calls["data"] + calls["acks"])
    assert calls["acks"] <= 0.10 * calls["data"]
