"""A replica holds its ordered history once.

``AtomicBroadcast.delivered`` (payload -> round, in delivery order) is
the history; ``Replica.executed`` (the executed ``(client, nonce)``
keys) is the at-most-once index.  Nothing else a replica holds grows
with the number of commits, a closed round is freed by reference
counting (the collector stays off here), and what a replica sends or
persists of its history — a ``RecoverLog``, a checkpoint body — keeps
its bytes, so replicas of either layout recover from each other.
"""

import asyncio
import gc
import hashlib
import json
import random
from collections.abc import Iterator, Sized
from contextlib import contextmanager

import pytest

from repro.core.atomic_broadcast import AbcConfig
from repro.core.protocol import Context
from repro.crypto.dealer import CLIENT_BASE
from repro.net import wire
from repro.net.cluster import deal_deployment
from repro.net.runtime import ReplicaHost
from repro.net.scheduler import FifoScheduler, RandomScheduler
from repro.net.simulator import Network
from repro.smr import KeyValueStore, build_service
from repro.smr.client import ServiceClient
from repro.smr.reconfig import epoch_service_session
from repro.smr.replica import RecoverLog, RecoverQuery

from ..helpers import record_sends


def _sizes(replica) -> dict[str, int]:
    """The length of every sized attribute of ``replica``, its
    broadcast and its stage."""
    holders = ((replica, ""), (replica.abc, "abc."), (replica.stage, "stage."))
    return {
        prefix + name: len(value)
        for holder, prefix in holders
        for name, value in vars(holder).items()
        if isinstance(value, Sized)
    }


@contextmanager
def _collector_off() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _service(confidential: bool = False):
    """A FIFO n = 4 service, and a function that commits one request on
    it alone."""
    dep = build_service(
        4, KeyValueStore, t=1, seed=7, scheduler=FifoScheduler(),
        abc_config=AbcConfig(pipeline_depth=4),
    )
    client = dep.new_client()
    submit = client.submit_confidential if confidential else client.submit
    dep.network.start()

    def commit(i: int) -> None:
        dep.run_until_complete(client, [submit(("set", "k", i))])
        dep.network.run()

    return dep, commit


@pytest.mark.parametrize("confidential", [False, True])
def test_a_closed_round_leaves_no_cyclic_garbage(confidential):
    """A round's agreement, broadcasts, votes and coin screen are freed
    by reference counting at the close that drops them: with the
    collector off, lone commits from the first leave nothing for it to
    find."""
    _dep, commit = _service(confidential)
    with _collector_off():
        for i in range(40):
            commit(i)
        assert gc.collect() == 0


@pytest.mark.parametrize("confidential", [False, True])
def test_only_the_history_grows_with_commits(confidential):
    """Over lone commits past a warm-up, the delivered record and the
    at-most-once index are the only sized state that grows — and, with
    confidential requests, the opened plaintexts by digest, which are
    what drop a decryption share arriving late and what recovery
    carries."""
    history = ["abc.delivered", "executed"] + ["stage.opened"] * confidential
    dep, commit = _service(confidential)
    before = {}
    with _collector_off():
        for i in range(1, 101):
            commit(i)
            if i == 50:
                before = {p: _sizes(r) for p, r in dep.replicas.items()}
    for party, replica in dep.replicas.items():
        after = _sizes(replica)
        grown = sorted(name for name, size in after.items() if size > before[party][name])
        assert grown == history
        assert all(after[name] == 100 for name in history)


# sha256 of the bytes below after 120 lone commits of the seeded run.
RECOVER_LOG_SHA256 = "110396cf9f0c72be5ec9d33b17dab500b013253cfd19169e3a6d399ebee82295"
CHECKPOINT_BODY_SHA256 = "12c5818efe13cf251579a114a00ee9aac0a30abc088743cc0f200ba950c87bc7"


def test_history_encodings_keep_their_bytes(tmp_path):
    """A replica's ``RecoverLog`` and checkpoint body hash to pinned
    digests, the same as when the history was held as a payload set and
    a separate (payload, round) list: a cluster can change layouts one
    replica at a time."""

    async def scenario():
        addresses = {p: ("127.0.0.1", 20_000 + p) for p in (*range(4), CLIENT_BASE)}
        deal_deployment(
            tmp_path, 4, 1, random.Random(3), addresses=addresses, abc_pipeline_depth=4
        )
        network = Network(RandomScheduler(), random.Random(3))
        hosts = [ReplicaHost(tmp_path, p, network=network) for p in range(4)]
        for host in hosts:
            await host.start()
        public = hosts[0].public
        client = ServiceClient(CLIENT_BASE, network, public, random.Random(4))
        network.attach(CLIENT_BASE, client)
        try:
            for i in range(120):
                nonce = client.submit(("set", f"k{i % 7}", i))
                network.run(until=lambda: nonce in client.completed)
            network.run()
            host = hosts[0]
            sent = record_sends(network)
            ctx = Context(host.runtime, epoch_service_session(host.epoch))
            host.replica.on_message(ctx, 1, RecoverQuery())
            (log,) = [m for m in sent if isinstance(m, RecoverLog)]
            body = json.loads(host.write_checkpoint().read_text())["checkpoint"]["body"]
            return len(log.entries), wire.dumps(log), bytes.fromhex(body)
        finally:
            for host in hosts:
                await host.close()

    entries, recover_log, checkpoint_body = asyncio.run(scenario())
    assert entries == 120
    assert hashlib.sha256(recover_log).hexdigest() == RECOVER_LOG_SHA256
    assert hashlib.sha256(checkpoint_body).hexdigest() == CHECKPOINT_BODY_SHA256
