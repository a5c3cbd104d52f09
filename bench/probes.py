"""Replay probes: unit costs of the layers a run cannot time in place.

``python -m bench.probes <workload> <seed>`` runs in a process of its
own — no tracer installed, no caches warmed by a workload — boots the
workload's configuration once on the simulator, records the messages
that one committed operation exchanges, and times

* ``wire.dumps`` / ``wire.loads`` / ``hashing.encode`` over that corpus,
* the same corpus pushed between two in-process ``TransportNetwork``
  endpoints over loopback TCP (serialise, HMAC, frame, ack),
* single exponentiations and Schnorr verifications at the workload's
  group size and quorum size,

and prints the numbers as one JSON object.  They say what one message
or one signature costs; the traced workloads say how many there are.
Like every time the benchmark reports, they are stated for the
reference machine (bench/hostspeed.py).
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from collections.abc import Callable

from repro.crypto import hashing
from repro.crypto.accel import accel_for
from repro.crypto.schnorr import keygen, verify_batch
from repro.net import wire
from repro.net.runtime import allocate_addresses
from repro.net.simulator import Node
from repro.net.transport import TransportNetwork

from bench.hostspeed import HostSpeed
from bench.sim import CORPUS, SimCluster
from bench.workloads import WORKLOADS, Workload

__all__ = ["run"]

CRYPTO_CALLS = 64
IO_TIMEOUT = 60.0


def _cpu_us_per_item(fn: Callable[[object], object], items: list, speed: HostSpeed) -> float:
    """Reference-machine CPU microseconds per item: the host's speed is
    sampled right before and right after the timed loop."""
    begin = time.monotonic()
    speed.sample()
    started = time.process_time_ns()
    for item in items:
        fn(item)
    elapsed = time.process_time_ns() - started
    speed.sample()
    return elapsed / 1e3 / len(items) / speed.factor(begin, time.monotonic())


class _Sink(Node):
    def __init__(self) -> None:
        self.received = 0

    def on_message(self, sender: int, payload: object) -> None:
        self.received += 1


async def _loopback_us_per_msg(
    corpus: list[object], rng: random.Random, speed: HostSpeed
) -> float:
    """CPU per message for sender and receiver together, both in this
    process: encode + HMAC + frame + socket + verify + decode + ack."""
    addresses = allocate_addresses([0, 1])
    key = rng.randbytes(32)
    sender = TransportNetwork(0, addresses, {1: key})
    receiver = TransportNetwork(1, addresses, {0: key})
    sink = _Sink()
    sender.attach(0, _Sink())
    receiver.attach(1, sink)
    await sender.start()
    await receiver.start()
    try:
        begin = time.monotonic()
        speed.sample()
        started = time.process_time_ns()
        for payload in corpus:
            sender.send(0, 1, payload)
        await receiver.wait_until(lambda: sink.received == len(corpus), timeout=IO_TIMEOUT)
        elapsed = time.process_time_ns() - started
        speed.sample()
        return elapsed / 1e3 / len(corpus) / speed.factor(begin, time.monotonic())
    finally:
        await sender.close()
        await receiver.close()


def run(workload: Workload, seed: int) -> dict[str, float]:
    rng = random.Random(f"bench-probes/{seed}")
    cluster = SimCluster.boot(workload, capture=CORPUS)
    corpus = cluster.scheduler.corpus
    speed = cluster.speed
    encoded = [wire.dumps(payload) for payload in corpus]
    out = {
        "net.wire.dumps_us_per_msg": _cpu_us_per_item(wire.dumps, corpus, speed),
        "net.wire.loads_us_per_msg": _cpu_us_per_item(wire.loads, encoded, speed),
        "net.wire.bytes_per_msg": sum(map(len, encoded)) / len(encoded),
        "crypto.hashing.encode_us_per_call": _cpu_us_per_item(hashing.encode, corpus, speed),
        "net.transport.loopback_us_per_msg": asyncio.run(_loopback_us_per_msg(corpus, rng, speed)),
    }

    group = workload.group()
    accel = accel_for(group)
    # Fresh bases each time: a base that recurs gets a table, and the
    # probe is of the untabled exponentiation that verifying a new
    # signature's commitment pays.
    pairs = [
        (group.random_element(rng), group.random_exponent(rng)) for _ in range(CRYPTO_CALLS)
    ]
    out["crypto.accel.exp_us"] = _cpu_us_per_item(lambda pair: accel.exp(*pair), pairs, speed)

    quorum = workload.n - workload.t
    signers = [keygen(rng, group) for _ in range(quorum)]
    batches = [
        [
            (key.verify_key, ("probe", index), key.sign(("probe", index), rng))
            for key in signers
        ]
        for index in range(max(1, CRYPTO_CALLS // quorum))
    ]
    singles = [item for batch in batches for item in batch]
    out["crypto.schnorr.verify_us"] = _cpu_us_per_item(
        lambda item: item[0].verify(item[1], item[2]), singles, speed
    )
    out["crypto.schnorr.verify_batch_us_per_sig"] = (
        _cpu_us_per_item(lambda batch: verify_batch(group, batch), batches, speed) / quorum
    )
    return out


if __name__ == "__main__":
    print(json.dumps(run(WORKLOADS[sys.argv[1]], int(sys.argv[2]))))
