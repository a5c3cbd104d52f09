"""The asyncio TCP transport: frame codec, delivery, and fault handling.

Every asynchronous test runs under ``asyncio.run`` inside a plain
pytest function (no asyncio plugin), and every network built here is
closed before the loop ends, so the suite leaks no tasks or sockets.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.codec import MAX_LENGTH
from repro.crypto import deal_system, small_group
from repro.crypto.dealer import CLIENT_BASE, deal_channel_keys
from repro.net import wire
from repro.net.chaos import FaultSpec, PartitionSpec, SeededFaultPlan, save_fault_plan
from repro.net.cluster import attach_client, deal_deployment
from repro.net.runtime import ReplicaHost
from repro.net.simulator import Network
from repro.net.scheduler import FifoScheduler
from repro.net.transport import (
    MAX_FRAME_BODY,
    TransportError,
    TransportNetwork,
    decode_data,
    decode_hello,
    encode_data,
    encode_hello,
)
from repro.smr.client import ServiceClient

from ..helpers import tcp_cluster

KEY_A = bytes(range(32))
KEY_B = bytes(range(32, 64))


# -- frame codec --------------------------------------------------------------------


def test_hello_roundtrip():
    frame = encode_hello(KEY_A, sender=3, recipient=7, incarnation=123)
    body = frame[4:]
    assert int.from_bytes(frame[:4], "big") == len(body)
    sender, incarnation = decode_hello(body, 7, {3: KEY_A}.get)
    assert (sender, incarnation) == (3, 123)


def test_hello_rejects_wrong_key():
    body = encode_hello(KEY_A, 3, 7, 123)[4:]
    with pytest.raises(TransportError):
        decode_hello(body, 7, {3: KEY_B}.get)


def test_hello_rejects_unknown_sender():
    body = encode_hello(KEY_A, 3, 7, 123)[4:]
    with pytest.raises(TransportError):
        decode_hello(body, 7, {5: KEY_A}.get)


def test_hello_rejects_wrong_recipient():
    # A frame for party 7 replayed at party 8 must not authenticate.
    body = encode_hello(KEY_A, 3, 7, 123)[4:]
    with pytest.raises(TransportError):
        decode_hello(body, 8, {3: KEY_A}.get)


def test_data_roundtrip():
    payload = wire.dumps(("session", 42))
    frame = encode_data(
        KEY_A, 1, 2, incarnation=9, seq=5, payload=payload,
        ack_incarnation=11, ack_seq=3,
    )
    incarnation, seq, ack_incarnation, ack_seq, decoded = decode_data(
        frame[4:], KEY_A, 1, 2
    )
    assert (incarnation, seq, ack_incarnation, ack_seq) == (9, 5, 11, 3)
    assert wire.loads(decoded) == ("session", 42)
    # Without an ack the frame acknowledges nothing.
    assert decode_data(encode_data(KEY_A, 1, 2, 9, 5, payload)[4:], KEY_A, 1, 2)[2:4] == (0, 0)


def test_data_rejects_tampered_payload():
    payload = wire.dumps("hello")
    frame = bytearray(encode_data(KEY_A, 1, 2, 9, 5, payload))
    frame[-1] ^= 0x01
    with pytest.raises(TransportError):
        decode_data(bytes(frame[4:]), KEY_A, 1, 2)


def test_data_rejects_reflected_direction():
    # The MAC binds direction: a (1 -> 2) frame replayed as (2 -> 1) fails.
    payload = wire.dumps("hello")
    body = encode_data(KEY_A, 1, 2, 9, 5, payload)[4:]
    with pytest.raises(TransportError):
        decode_data(body, KEY_A, 2, 1)


def test_encode_rejects_oversized_payload():
    with pytest.raises(TransportError):
        encode_data(KEY_A, 1, 2, 9, 5, b"x" * (MAX_LENGTH + 1))


# -- in-process transport helpers --------------------------------------------------


class Collector:
    """A node that just records what the transport delivers."""

    def __init__(self) -> None:
        self.received: list[tuple[int, object]] = []

    def on_message(self, sender: int, payload: object) -> None:
        self.received.append((sender, payload))


async def _start_nets(parties, seed=0):
    """One TransportNetwork + Collector per party, all ports dynamic."""
    keys = deal_channel_keys(list(parties), random.Random(seed))
    nets: dict[int, TransportNetwork] = {}
    nodes: dict[int, Collector] = {}
    for party in parties:
        net = TransportNetwork(
            party, {party: ("127.0.0.1", 0)}, keys[party],
            rng=random.Random(1000 + party),
        )
        node = Collector()
        net.attach(party, node)
        await net.start()
        nets[party], nodes[party] = net, node
    for party in parties:
        for peer in parties:
            nets[party].addresses[peer] = nets[peer].listen_address
    return nets, nodes


async def _close_all(nets):
    for net in nets.values():
        await net.close()


async def _until(condition, timeout=15.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition timed out"
        await asyncio.sleep(0.02)


# -- delivery ----------------------------------------------------------------------


def test_point_to_point_delivery_in_order():
    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            for i in range(25):
                nets[0].send(0, 1, ("msg", i))
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == 25, timeout=15
            )
            assert nodes[1].received == [(0, ("msg", i)) for i in range(25)]
            assert not nets[0].errors and not nets[1].errors
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_deferred_work_runs_after_the_iterations_frames_and_counts_its_failures(capsys):
    """``defer`` runs after every frame the loop iteration dispatched
    (the whole write of ten frames is one read here), counts a raising
    callback as a handler error, and runs nothing once closed."""

    class Deferring(Collector):
        def on_message(self, sender, payload):
            super().on_message(sender, payload)
            if len(self.received) == 1:
                net.defer(1, lambda: seen.append(len(self.received)))
                net.defer(1, lambda: 1 / 0)

    async def scenario():
        nets, _nodes = await _start_nets([0, 1])
        try:
            nets[1].attach(1, Deferring())
            nonlocal net
            net = nets[1]
            for i in range(10):
                nets[0].send(0, 1, ("msg", i))
            await _until(lambda: seen)
            assert seen == [10]
            assert net.trace.counters["transport.handler_errors"] == 1
            await net.close()
            net.defer(1, lambda: seen.append("after close"))
            await asyncio.sleep(0)
            assert seen == [10]
        finally:
            await _close_all(nets)

    net = None
    seen = []
    asyncio.run(scenario())
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_broadcast_reaches_every_party_including_self():
    async def scenario():
        nets, nodes = await _start_nets([0, 1, 2])
        try:
            nets[0].broadcast(0, "ping")
            for party in (0, 1, 2):
                await nets[party].wait_until(
                    lambda p=party: nodes[p].received == [(0, "ping")], timeout=15
                )
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_delivery_survives_connection_churn():
    """Messages sent while the receiver is down arrive after it restarts
    on the same address (reconnect + retransmission of the queue)."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            for i in range(5):
                nets[0].send(0, 1, ("before", i))
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == 5, timeout=15
            )
            # Crash only once the five are acknowledged: a frame delivered
            # but not yet acked is retransmitted to the restarted receiver,
            # which cannot tell it from a new one (docs/DEPLOYMENT.md).
            await _until(lambda: not nets[0]._channels[1].pending)
            address = nets[1].listen_address
            await nets[1].close()  # crash the receiver

            for i in range(5):  # queued while the peer is down
                nets[0].send(0, 1, ("after", i))
            await asyncio.sleep(0.2)  # let at least one dial fail

            restarted = TransportNetwork(
                1,
                {1: address, 0: nets[0].listen_address},
                nets[1].channel_keys,
                rng=random.Random(2001),
            )
            node = Collector()
            restarted.attach(1, node)
            await restarted.start()
            nets[1] = restarted
            await restarted.wait_until(
                lambda: len(node.received) == 5, timeout=20
            )
            assert node.received == [(0, ("after", i)) for i in range(5)]
            assert nets[0].trace.counters.get("transport.reconnects", 0) >= 1
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


# -- injected faults (the chaos hook surface) ---------------------------------------


def test_partition_blocks_delivery_until_heal():
    """While a FaultPlan partition is active no frame crosses the cut
    in either direction; after the scheduled heal the retransmission
    machinery delivers everything that was queued."""

    async def scenario():
        spec = FaultSpec(
            partitions=(PartitionSpec(start=0.0, stop=1.0, group=(1,)),)
        )
        epoch = time.time()
        keys = deal_channel_keys([0, 1], random.Random(3))
        nets, nodes = {}, {}
        for party in (0, 1):
            net = TransportNetwork(
                party, {party: ("127.0.0.1", 0)}, keys[party],
                rng=random.Random(3000 + party),
                faults=SeededFaultPlan(spec, seed=11, epoch=epoch),
            )
            node = Collector()
            net.attach(party, node)
            await net.start()
            nets[party], nodes[party] = net, node
        for party in (0, 1):
            for peer in (0, 1):
                nets[party].addresses[peer] = nets[peer].listen_address
        try:
            for i in range(5):
                nets[0].send(0, 1, ("cut", i))
                nets[1].send(1, 0, ("cut-back", i))
            await asyncio.sleep(0.3)  # well inside the partition window
            assert nodes[1].received == [] and nodes[0].received == []
            assert nets[0].trace.counters.get("chaos.partitioned", 0) >= 1

            await nets[1].wait_until(
                lambda: len(nodes[1].received) == 5, timeout=30
            )
            await nets[0].wait_until(
                lambda: len(nodes[0].received) == 5, timeout=30
            )
            assert nodes[1].received == [(0, ("cut", i)) for i in range(5)]
            assert nodes[0].received == [(1, ("cut-back", i)) for i in range(5)]
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


# -- misbehaving peers -------------------------------------------------------------


async def _raw_connect(net):
    host, port = net.listen_address
    return await asyncio.open_connection(host, port)


def test_oversized_frame_drops_connection():
    async def scenario():
        nets, nodes = await _start_nets([0])
        try:
            reader, writer = await _raw_connect(nets[0])
            writer.write((MAX_FRAME_BODY + 1).to_bytes(4, "big") + b"x" * 64)
            await writer.drain()
            assert await reader.read() == b""  # server hung up
            writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.rejected", 0) >= 1
            )
            assert nodes[0].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_garbage_frame_drops_connection():
    async def scenario():
        nets, nodes = await _start_nets([0])
        try:
            reader, writer = await _raw_connect(nets[0])
            writer.write((5).to_bytes(4, "big") + b"\xff\xff\xff\xff\xff")
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.rejected", 0) >= 1
            )
            assert nodes[0].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_hmac_failure_drops_peer():
    """A dialer without the dealer's channel key authenticates nothing:
    its hello is rejected and nothing it sends is ever delivered."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            reader, writer = await _raw_connect(nets[0])
            wrong_key = b"\x42" * 32
            writer.write(encode_hello(wrong_key, 1, 0, incarnation=7))
            payload = wire.dumps("forged")
            writer.write(encode_data(wrong_key, 1, 0, 7, 1, payload))
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.rejected", 0) >= 1
            )
            assert nodes[0].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_bad_data_mac_after_valid_hello_drops_connection():
    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]  # the real 1 -> 0 channel key
            reader, writer = await _raw_connect(nets[0])
            writer.write(encode_hello(key, 1, 0, incarnation=7))
            good = bytearray(encode_data(key, 1, 0, 7, 1, wire.dumps("x")))
            good[-1] ^= 0x01  # corrupt the payload; the MAC no longer matches
            writer.write(bytes(good))
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.rejected", 0) >= 1
            )
            assert nodes[0].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_replayed_frames_are_deduplicated():
    """A frame replayed on a second connection (same incarnation and
    sequence number) is counted and discarded, not delivered twice."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]
            hello = encode_hello(key, 1, 0, incarnation=7)
            frame = encode_data(key, 1, 0, 7, 1, wire.dumps("once"))
            for _ in range(2):
                _, writer = await _raw_connect(nets[0])
                writer.write(hello + frame)
                await writer.drain()
                writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.duplicates", 0) >= 1
            )
            assert nodes[0].received == [(1, "once")]
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


# -- parity with the simulator ------------------------------------------------------


def test_send_to_unknown_recipient_raises():
    async def scenario():
        nets, _ = await _start_nets([0])
        try:
            with pytest.raises(ValueError):
                nets[0].send(0, 99, "hello")
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_wait_until_times_out():
    async def scenario():
        nets, _ = await _start_nets([0])
        try:
            with pytest.raises(asyncio.TimeoutError):
                await nets[0].wait_until(lambda: False, timeout=0.1)
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_bytes_sent_identical_to_simulator():
    """Both backends charge exactly ``len(wire.dumps(payload))`` per
    send, so identical runs report identical ``bytes_sent``."""
    payloads = [("round", 1), "hello", {"k": (1, 2, 3)}, b"\x00" * 50]

    sim = Network(FifoScheduler(), random.Random(0))
    sim.trace.enable_byte_accounting()
    for party in (0, 1):
        sim.attach(party, Collector())
    for payload in payloads:
        sim.send(0, 1, payload)
    sim.broadcast(0, payloads[0])

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        nets[0].trace.enable_byte_accounting()
        try:
            for payload in payloads:
                nets[0].send(0, 1, payload)
            nets[0].broadcast(0, payloads[0])
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == len(payloads) + 1, timeout=15
            )
            return nets[0].trace.bytes_sent
        finally:
            await _close_all(nets)

    tcp_bytes = asyncio.run(scenario())
    expected = sum(len(wire.dumps(p)) for p in payloads)
    expected += 2 * len(wire.dumps(payloads[0]))  # broadcast: parties 0 and 1
    assert sim.trace.bytes_sent == tcp_bytes == expected


# -- the full replica stack over sockets -------------------------------------------


async def _submit(net, client, operation, timeout=30.0):
    nonce = client.submit(operation)
    await net.wait_until(lambda: nonce in client.completed, timeout=timeout)
    return client.completed[nonce].result


def test_smr_crash_and_reconnect_mid_protocol(tmp_path):
    """Run the real replica stack over TCP, crash a replica between two
    client writes, restart it with Section-6 recovery, and check it
    rebuilds the exact history it missed."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(5))

        async with tcp_cluster(tmp_path, client_seed=9) as (hosts, client):
            net = client.network
            assert await _submit(net, client, ("set", "a", 1)) == ("ok", 1)
            await hosts[3].close()  # crash mid-protocol

            assert await _submit(net, client, ("set", "b", 2)) == ("ok", 2)

            hosts[3] = ReplicaHost(tmp_path, 3)  # fresh state, same address
            await hosts[3].start(recover=True)
            assert await _submit(net, client, ("set", "c", 3)) == ("ok", 3)

            await _until(lambda: not hosts[3].replica.recovering, timeout=30)
            await _until(
                lambda: len(hosts[3].replica.executed) == 3, timeout=30
            )
            snapshot = hosts[3].replica.state_machine.snapshot()
            assert dict(snapshot[1]) == {"a": 1, "b": 2, "c": 3}
            for host in hosts.values():
                assert not host.network.errors

    asyncio.run(scenario())


def test_recovery_stalls_behind_partition_then_completes(tmp_path):
    """Restart a crashed replica *while a partition isolates it*: the
    Section-6 state transfer cannot progress until the cut heals (the
    fault plan blocks its frames on both the send and receive side),
    and completes correctly once it does."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(8))

        async with tcp_cluster(tmp_path, client_seed=4) as (hosts, client):
            net = client.network
            assert await _submit(net, client, ("set", "a", 1)) == ("ok", 1)
            await hosts[3].close()
            assert await _submit(net, client, ("set", "b", 2)) == ("ok", 2)

            # The restarted replica comes back behind an active cut that
            # heals itself 1.2s in.  Only the rejoining host carries the
            # plan: it enforces the cut on its own writes *and* on every
            # connection it accepts, so no recovery frame crosses.
            # It loads the plan as a chaos run's replica does.
            save_fault_plan(
                tmp_path,
                FaultSpec(
                    partitions=(PartitionSpec(start=0.0, stop=1.2, group=(3,)),)
                ),
                seed=17,
            )
            hosts[3] = ReplicaHost(tmp_path, 3)
            await hosts[3].start(recover=True)

            await asyncio.sleep(0.6)  # well inside the partition window
            assert hosts[3].replica.recovering
            assert hosts[3].replica.executed == set()
            assert hosts[3].network.trace.counters.get("chaos.partitioned", 0) >= 1

            await _until(lambda: not hosts[3].replica.recovering, timeout=30)
            assert await _submit(net, client, ("set", "c", 3)) == ("ok", 3)
            await _until(
                lambda: len(hosts[3].replica.executed) == 3, timeout=30
            )
            snapshot = hosts[3].replica.state_machine.snapshot()
            assert dict(snapshot[1]) == {"a": 1, "b": 2, "c": 3}

    asyncio.run(scenario())


def test_pipelined_recovery_over_tcp(tmp_path):
    """Batched + pipelined cluster over real sockets: crash a replica
    under concurrent client load, restart it with recovery while rounds
    are still deciding, and check it converges without double-executing
    anything."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(11), abc_max_batch=4, abc_pipeline_depth=3)

        async with tcp_cluster(tmp_path, client_seed=12) as (hosts, client):
            net = client.network
            assert hosts[0].replica.abc.config.max_batch == 4
            assert hosts[0].replica.abc.config.pipeline_depth == 3
            assert await _submit(net, client, ("set", "pre", 0)) == ("ok", 1)
            await hosts[3].close()  # crash under load

            # Concurrent submissions keep several rounds in flight.
            nonces = [client.submit(("set", f"k{i}", i)) for i in range(8)]
            hosts[3] = ReplicaHost(tmp_path, 3)
            await hosts[3].start(recover=True)
            await net.wait_until(
                lambda: all(n in client.completed for n in nonces), timeout=30
            )
            await _until(lambda: not hosts[3].replica.recovering, timeout=30)
            assert await _submit(net, client, ("set", "post", 9)) == ("ok", 10)
            await _until(
                lambda: len(hosts[3].replica.executed) == 10, timeout=30
            )
            snapshot = hosts[3].replica.state_machine.snapshot()
            expected = {f"k{i}": i for i in range(8)} | {"pre": 0, "post": 9}
            assert dict(snapshot[1]) == expected
            # Exactly-once delivery survived the crash/recovery: one
            # delivered payload per executed request.
            for host in hosts.values():
                assert len(host.replica.abc.delivered) == len(host.replica.executed) == 10

    asyncio.run(scenario())


def test_a_second_client_process_never_reuses_a_nonce(tmp_path):
    """A client process that starts after another one of the same id
    exited draws nonces above every nonce the first one used: its write
    commits, instead of being dropped by the replicas' at-most-once
    execution as a duplicate of the first run's request."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(14))
        async with tcp_cluster(tmp_path, client_seed=15) as (hosts, first):
            assert await _submit(first.network, first, ("set", "a", 1)) == ("ok", 1)
            assert await _submit(first.network, first, ("set", "c", 3)) == ("ok", 2)
            await first.network.close()  # the first process exits
            second = await attach_client(tmp_path, random.Random(16))
            try:
                assert await _submit(
                    second.network, second, ("set", "b", 2), timeout=15.0
                ) == ("ok", 3)
                assert min(second._operations) > max(first._operations)
            finally:
                await second.network.close()
            await _until(lambda: all(
                dict(host.replica.state_machine.snapshot()[1]).get("b") == 2
                for host in hosts.values()
            ))

    asyncio.run(scenario())


def test_a_total_restart_keeps_the_state(tmp_path):
    """Every replica stops, then every one restarts with recovery from
    its own checkpoint: the state survives, and a fresh client's write
    commits on top of it."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(17))
        async with tcp_cluster(
            tmp_path, client_seed=18, checkpoint_every=1
        ) as (hosts, client):
            for key, value in (("a", 1), ("b", 2)):
                await _submit(client.network, client, ("set", key, value))
            await client.network.close()
            for party in list(hosts):
                await hosts[party].close()
            for party in list(hosts):
                hosts[party] = ReplicaHost(tmp_path, party, checkpoint_every=1)
                await hosts[party].start(recover=True)
            fresh = await attach_client(tmp_path, random.Random(19))
            try:
                assert await _submit(fresh.network, fresh, ("set", "c", 3)) == ("ok", 3)
                assert await _submit(fresh.network, fresh, ("get", "a")) == ("value", 1)
            finally:
                await fresh.network.close()
            await _until(lambda: all(
                dict(host.replica.state_machine.snapshot()[1])
                == {"a": 1, "b": 2, "c": 3}
                for host in hosts.values()
            ))
            for host in hosts.values():
                assert host.checkpoint_status == "loaded"

    asyncio.run(scenario())


def test_one_reads_worth_of_submissions_opens_one_round(tmp_path):
    """A client's burst leaves in one write per replica and arrives in
    one read: the replica's turn (its loop iteration) ends after it
    dispatched every submission, so they ride one round together — not
    the first alone and the rest behind it."""

    async def scenario():
        deal_deployment(tmp_path, 4, 1, random.Random(23), abc_pipeline_depth=4)
        async with tcp_cluster(tmp_path, client_seed=24) as (hosts, client):
            net = client.network
            await _submit(net, client, ("set", "warm", 0))
            await _until(lambda: all(h.replica.abc.round == 1 for h in hosts.values()))
            nonces = [client.submit(("set", f"k{i}", i)) for i in range(8)]
            await net.wait_until(lambda: all(n in client.completed for n in nonces), timeout=30)
            await _until(lambda: all(h.replica.abc.round >= 2 for h in hosts.values()))
            for host in hosts.values():
                assert list(host.replica.abc.delivered.values()) == [1] + [2] * 8

    asyncio.run(scenario())


def test_superseded_inbound_connection_is_dropped():
    """Once a restarted peer's fresh connection installs a new inbound
    channel, a frame arriving on the *old* connection must drop that
    connection — not deliver through (or mutate) the orphaned channel's
    replay bookkeeping."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]
            # Old connection: incarnation 7, one delivered frame.
            _, old_writer = await _raw_connect(nets[0])
            old_writer.write(encode_hello(key, 1, 0, incarnation=7))
            old_writer.write(encode_data(key, 1, 0, 7, 1, wire.dumps("first")))
            await old_writer.drain()
            await _until(lambda: nodes[0].received == [(1, "first")])
            # The peer "restarts": a second connection with a fresh
            # incarnation replaces the inbound channel.
            _, new_writer = await _raw_connect(nets[0])
            new_writer.write(encode_hello(key, 1, 0, incarnation=8))
            await new_writer.drain()
            await _until(
                lambda: nets[0]._inbound.get(1) is not None
                and nets[0]._inbound[1].incarnation == 8
            )
            # A late frame on the superseded connection is rejected.
            before = nets[0].trace.counters.get("transport.disconnects", 0)
            old_writer.write(encode_data(key, 1, 0, 7, 2, wire.dumps("stale")))
            await old_writer.drain()
            await _until(
                lambda: nets[0].trace.counters.get("transport.disconnects", 0)
                > before
            )
            assert nodes[0].received == [(1, "first")]
            # The fresh channel's replay namespace was never touched by
            # the old connection.
            assert nets[0]._inbound[1].incarnation == 8
            assert nets[0]._inbound[1].last_seq == 0
            old_writer.close()
            new_writer.close()
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


# -- the message path: one encoding, frames and acks in batches ----------------------


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` (looked up per call, as the
    transport does)."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_broadcast_encodes_once_and_counts_per_recipient(monkeypatch):
    """n recipients cost one ``wire.dumps``; ``sent`` and ``bytes_sent``
    still count every recipient, and the sender's own copy is the object
    it sent, delivered on a later turn of the loop."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1, 2, 3])
        nets[0].trace.enable_byte_accounting()
        dumps = _count_calls(monkeypatch, wire, "dumps")
        payload = (("session", 1), ("value", b"x" * 40))
        try:
            nets[0].broadcast(0, payload)
            assert len(dumps) == 1
            assert nodes[0].received == []  # never inline
            assert nets[0].trace.sent == 4
            assert nets[0].trace.bytes_sent == 4 * len(wire.dumps(payload))
            for party in range(4):
                await nets[party].wait_until(
                    lambda p=party: nodes[p].received == [(0, payload)], timeout=15
                )
            assert nodes[0].received[0][1] is payload
            assert nets[0].trace.delivered == 1
            # A different object is a different encoding, equal or not.
            del dumps[:]
            twin = (payload[0], payload[1])
            assert twin == payload and twin is not payload
            nets[0].broadcast(0, twin)
            nets[0].broadcast(0, payload)
            assert len(dumps) == 2
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_unencodable_broadcast_raises_at_the_sender():
    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            with pytest.raises(TransportError):
                nets[0].broadcast(0, ("session", object()))
            with pytest.raises(TransportError):
                nets[0].send(0, 0, [1, 2])  # the local copy is encoded too
            await asyncio.sleep(0.05)
            assert nodes[0].received == [] and nodes[1].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_client_fanout_encodes_once(monkeypatch):
    """``ServiceClient.submit`` sends one payload object to n servers."""
    keys = deal_system(4, random.Random(77), t=1, clients=1, group=small_group())

    async def scenario():
        parties = [0, 1, 2, 3, CLIENT_BASE]
        nets, nodes = await _start_nets(parties)
        client = ServiceClient(
            CLIENT_BASE, nets[CLIENT_BASE], keys.public, random.Random(5)
        )
        dumps = _count_calls(monkeypatch, wire, "dumps")
        try:
            client.submit(("set", "k", 1))
            assert len(dumps) == 1
            assert nets[CLIENT_BASE].trace.sent == 4
            for party in range(4):
                await nets[party].wait_until(
                    lambda p=party: len(nodes[p].received) == 1, timeout=15
                )
            assert len({repr(nodes[p].received) for p in range(4)}) == 1
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_broadcast_addresses_the_known_servers_only():
    """Clients are outside the group; a joiner is reached once admitted
    and a leaver no longer once forgotten."""

    async def scenario():
        parties = [0, 1, 2, 3, 4, CLIENT_BASE]
        nets, nodes = await _start_nets(parties)
        joiner_address = nets[0].addresses.pop(4)
        joiner_key = nets[0].channel_keys.pop(4)
        try:
            nets[0].broadcast(0, "epoch-0")
            assert nets[0].trace.sent == 4
            nets[0].admit_peer(4, joiner_address, joiner_key)
            nets[0].broadcast(0, "epoch-1")
            assert nets[0].trace.sent == 4 + 5
            await nets[4].wait_until(
                lambda: nodes[4].received == [(0, "epoch-1")], timeout=15
            )
            nets[0].forget_peer(1)
            nets[0].broadcast(0, "epoch-2")
            assert nets[0].trace.sent == 4 + 5 + 4
            await nets[4].wait_until(
                lambda: len(nodes[4].received) == 2, timeout=15
            )
            assert [p for _, p in nodes[1].received] == ["epoch-0", "epoch-1"]
            assert nodes[CLIENT_BASE].received == []
            assert CLIENT_BASE in nets[0].parties  # ``parties`` means all
            # A client is still reached by ``send``.
            nets[0].send(0, CLIENT_BASE, "reply")
            await nets[CLIENT_BASE].wait_until(
                lambda: nodes[CLIENT_BASE].received == [(0, "reply")], timeout=15
            )
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_back_to_back_frames_share_writes_and_acks(monkeypatch):
    """N frames queued in one turn arrive exactly once, in order, and
    cost far fewer than N acks; the sender's queue still drains."""
    from repro.net import transport

    count = 200

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        acks = _count_calls(monkeypatch, transport, "encode_ack")
        try:
            for i in range(count):
                nets[0].send(0, 1, ("msg", i))
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == count, timeout=15
            )
            assert nodes[1].received == [(0, ("msg", i)) for i in range(count)]
            await _until(lambda: not nets[0]._channels[1].pending)
            assert 1 <= len(acks) < count // 4
            # The acks are cumulative and the last one covers the lot.
            assert acks[-1][-1] == count
            assert not nets[1].trace.counters.get("transport.duplicates")
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


class _Echo(Collector):
    """Answers each number below ``last`` from a peer with the next one."""

    def __init__(self, net, last):
        super().__init__()
        self.net, self.last = net, last

    def on_message(self, sender, payload):
        super().on_message(sender, payload)
        if payload < self.last:
            self.net.send(self.net.party, sender, payload + 1)


def test_two_way_traffic_sends_no_standalone_ack(monkeypatch):
    """Acks ride on the data going back: a ping-pong needs no ack frame
    of its own while it lasts, and both unacked queues drain — the last
    frame, which nothing answers, by one ack after the delay."""
    from repro.net import transport

    last = 40

    async def scenario():
        nets, warm = await _start_nets([0, 1])
        # Open both connections first, so that no dial delays an answer.
        nets[0].send(0, 1, "hello")
        nets[1].send(1, 0, "hello")
        await _until(lambda: all(warm[p].received for p in (0, 1)) and not any(
            net._channels[1 - p].pending for p, net in nets.items()
        ))
        nodes = {p: _Echo(nets[p], last) for p in (0, 1)}
        for party, node in nodes.items():
            nets[party].attach(party, node)
        acks = _count_calls(monkeypatch, transport, "encode_ack")
        try:
            nets[0].send(0, 1, 0)
            await nets[1].wait_until(
                lambda: sum(len(n.received) for n in nodes.values()) == last + 1,
                timeout=15,
            )
            assert acks == []
            await _until(lambda: not any(net._channels[1 - p].pending for p, net in nets.items()))
            assert len(acks) <= 1
            assert not nets[0].errors and not nets[1].errors
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_a_one_way_flow_is_acked_after_64_frames_or_the_delay(monkeypatch):
    """With no data going back, a receiver acks at once when 64 frames
    are owed, and otherwise once an owed ack has waited the delay."""
    from repro.net import transport

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        acks = _count_calls(monkeypatch, transport, "encode_ack")
        loop = asyncio.get_running_loop()
        try:
            for count in (transport._ACK_EVERY, transport._ACK_EVERY - 1):
                del acks[:]
                total = len(nodes[1].received) + count
                started = loop.time()
                for i in range(count):
                    nets[0].send(0, 1, ("msg", i))
                await _until(lambda: not nets[0]._channels[1].pending)
                waited = loop.time() - started
                assert len(nodes[1].received) == total
                assert len(acks) == 1 and acks[0][-1] == total  # cumulative
                if count == transport._ACK_EVERY:
                    assert waited < transport._ACK_DELAY
                else:
                    assert waited >= transport._ACK_DELAY
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_a_flipped_ack_field_fails_the_mac():
    """The ack a data frame carries is authenticated with it: one flipped
    bit in its ack incarnation drops the connection, delivering nothing."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]
            frame = bytearray(encode_data(
                key, 1, 0, 7, 1, wire.dumps("x"),
                ack_incarnation=nets[0].incarnation, ack_seq=1,
            ))
            frame[4 + 1 + 16] ^= 0x01  # the first byte of ack_incarnation
            reader, writer = await _raw_connect(nets[0])
            writer.write(encode_hello(key, 1, 0, incarnation=7) + bytes(frame))
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            await _until(
                lambda: nets[0].trace.counters.get("transport.rejected", 0) >= 1
            )
            assert nodes[0].received == []
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_an_ack_for_another_incarnation_prunes_nothing():
    """A data frame's ack prunes the receiver's own unacked queue to its
    sender only when it names the receiver's current incarnation."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]
            await nets[1].close()  # party 1 never acks: 0's queue stays
            for i in range(3):
                nets[0].send(0, 1, ("queued", i))
            queue = nets[0]._channels[1].pending
            assert [seq for seq, _ in queue] == [1, 2, 3]
            other = nets[0].incarnation ^ 1
            _, writer = await _raw_connect(nets[0])
            writer.write(encode_hello(key, 1, 0, incarnation=7) + encode_data(
                key, 1, 0, 7, 1, wire.dumps("a"), ack_incarnation=other, ack_seq=3
            ))
            await writer.drain()
            await _until(lambda: len(nodes[0].received) == 1)
            assert [seq for seq, _ in queue] == [1, 2, 3]
            writer.write(encode_data(
                key, 1, 0, 7, 2, wire.dumps("b"),
                ack_incarnation=nets[0].incarnation, ack_seq=2,
            ))
            await writer.drain()
            await _until(lambda: len(nodes[0].received) == 2)
            assert [seq for seq, _ in queue] == [3]
            writer.close()
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_a_frame_delay_adds_latency_instead_of_throttling():
    """Two frames drawn a delay d each arrive about d after they were
    sent, not 2d: a delay holds a frame in the link's delay line until
    max(previous release, now + d)."""
    from repro.net.transport import FaultPlan, FrameFault

    delay = 0.25

    class Delayed(FaultPlan):
        def __init__(self):
            self.armed = False
            self.sampled = 0

        def frame_fault(self, sender, recipient):
            self.sampled += self.armed
            return FrameFault(delay=delay if self.armed else 0.0)

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        plan = Delayed()
        nets[0].faults = plan
        loop = asyncio.get_running_loop()
        try:
            nets[0].send(0, 1, "warm-up")  # open the connection undelayed
            await nets[1].wait_until(lambda: len(nodes[1].received) == 1, timeout=15)
            plan.armed = True
            started = loop.time()
            nets[0].send(0, 1, "first")
            nets[0].send(0, 1, "second")
            await nets[1].wait_until(lambda: len(nodes[1].received) == 3, timeout=15)
            elapsed = loop.time() - started
            assert delay <= elapsed < 1.8 * delay
            assert plan.sampled == 2
            assert [p for _, p in nodes[1].received] == ["warm-up", "first", "second"]
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


class _ScriptedPlan(SeededFaultPlan):
    """A seeded plan that records each decision it hands out."""

    def __init__(self, spec, seed):
        super().__init__(spec, seed)
        self.decisions: list[str] = []

    def frame_fault(self, sender, recipient):
        fault = super().frame_fault(sender, recipient)
        self.decisions.append(fault.action)
        return fault


def test_frame_faults_are_sampled_once_per_frame_in_order():
    """Batching writes does not batch the chaos plan: every data frame
    draws one decision from the link's stream, in sequence order."""
    count = 60
    spec = FaultSpec(duplicate_rate=0.3)

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        plan = _ScriptedPlan(spec, seed=21)
        nets[0].faults = plan
        try:
            for i in range(count):
                nets[0].send(0, 1, ("msg", i))
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == count, timeout=15
            )
            await _until(lambda: not nets[0]._channels[1].pending)
            twin = SeededFaultPlan(spec, seed=21)
            expected = [twin.frame_fault(0, 1).action for _ in range(count)]
            assert plan.decisions == expected
            duplicated = expected.count("duplicate")
            assert duplicated > 0
            assert nets[0].trace.counters["chaos.duplicated"] == duplicated
            await _until(
                lambda: nets[1].trace.counters.get("transport.duplicates", 0)
                == duplicated
            )
            assert nodes[1].received == [(0, ("msg", i)) for i in range(count)]
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


@pytest.mark.parametrize("action", ["reset", "corrupt"])
def test_fault_mid_batch_leaves_the_rest_to_retransmission(action):
    """A reset or a corrupted frame in the middle of a batch: the frames
    ahead of it went out, the rest are retransmitted on the redial, and
    nothing is delivered twice or out of order."""
    from repro.net.transport import FaultPlan, FrameFault

    count, faulted = 40, 17

    class OneFault(FaultPlan):
        def __init__(self):
            self.sampled = 0

        def frame_fault(self, sender, recipient):
            self.sampled += 1
            return FrameFault(action if self.sampled == faulted else "pass")

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        plan = OneFault()
        nets[0].faults = plan
        try:
            for i in range(count):
                nets[0].send(0, 1, ("msg", i))
            await nets[1].wait_until(
                lambda: len(nodes[1].received) == count, timeout=20
            )
            await _until(lambda: not nets[0]._channels[1].pending)
            assert nodes[1].received == [(0, ("msg", i)) for i in range(count)]
            assert nets[0].trace.counters["transport.reconnects"] >= 1
            # Frames behind the fault were sampled again when rewritten.
            assert plan.sampled > count
            counter = {"reset": "chaos.resets", "corrupt": "chaos.corruptions"}
            assert nets[0].trace.counters[counter[action]] == 1
            assert not nets[0].errors and not nets[1].errors
        finally:
            await _close_all(nets)

    asyncio.run(scenario())


def test_frames_split_across_reads_are_reassembled():
    """A frame is taken whole however the stream is chunked: byte by
    byte, and with the next frame's header riding in the same chunk."""

    async def scenario():
        nets, nodes = await _start_nets([0, 1])
        try:
            key = nets[1].channel_keys[0]
            stream = encode_hello(key, 1, 0, incarnation=7) + b"".join(
                encode_data(key, 1, 0, 7, seq, wire.dumps(("part", seq)))
                for seq in (1, 2, 3)
            )
            reader, writer = await _raw_connect(nets[0])
            for cut in (1, 2, 3, 50, 51, 90, 200, len(stream) - 1):
                writer.write(stream[:cut])
                stream = stream[cut:]
                await writer.drain()
                await asyncio.sleep(0.01)
            writer.write(stream)
            await writer.drain()
            await _until(lambda: len(nodes[0].received) == 3)
            assert nodes[0].received == [(1, ("part", seq)) for seq in (1, 2, 3)]
            writer.close()
        finally:
            await _close_all(nets)

    asyncio.run(scenario())
