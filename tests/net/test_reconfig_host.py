"""Host-side reconfiguration semantics: an epoch ends at its
Reconfigure (every host enters the next session at the same round), one
membership rule for live and replayed operations, the flush-watchdog
retry ladder, and peer lifecycle on add-after-remove.

Every asynchronous test runs under ``asyncio.run`` inside a plain
pytest function, mirroring tests/net/test_transport.py.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.crypto import deal_system, keystore, small_group
from repro.crypto.dealer import CLIENT_BASE
from repro.crypto.dkg import reshare_session
from repro.crypto.schnorr import keygen
from repro.net.cluster import attach_client, deal_deployment
from repro.core.protocol import Context
from repro.net.runtime import (
    GENESIS_FILE,
    RETIRED,
    SERVING,
    Phase,
    ReplicaHost,
    dh_channel_key,
    load_epoch,
    provision_dkg_deployment,
    save_epoch,
    save_public,
)
from repro.net.transport import TransportNetwork
from repro.smr import reconfig
from repro.smr.reconfig import EpochTombstone, epoch_service_session
from repro.smr.replica import Replica
from repro.smr.state_machine import KeyValueStore, Request

from ..helpers import tcp_cluster


def _deployment(tmp_path, n=4, seed=5):
    return deal_deployment(tmp_path, n, 1, random.Random(seed))


def _refresh_op(keys, epoch, signer=0, seed=9):
    return reconfig.reconfigure_operation(
        "refresh", epoch, signer, keys.private[signer].signing_key,
        random.Random(seed),
    )


def _req(client, nonce, operation):
    return Request(client=client, nonce=nonce, operation=operation)


# -- replica execution -------------------------------------------------------------


def test_results_bounded_per_client():
    replica = Replica(KeyValueStore())
    replica._replaying = True
    for nonce in range(1, 21):
        replica._execute(None, _req(7, nonce, ("set", "x", nonce)), nonce)
    replica._execute(None, _req(8, 1, ("set", "y", 0)), 30)
    # One cached (request, result) pair per client, not per request.
    assert set(replica._results) == {7, 8}
    request, result = replica._results[7]
    assert request.nonce == 20 and result == ("ok", 20)


# -- one membership rule, live and replayed -----------------------------------------


def _replay(host, *operations):
    """Replay ``operations`` as a restart replays its checkpoint; returns
    the result each one recorded."""
    entries = tuple(
        (_req(900, i + 1, op).encode(), i) for i, op in enumerate(operations)
    )
    ctx = Context(host.runtime, epoch_service_session(host.epoch))
    host.replica.preload_log(ctx, entries)
    return [result for _, result in host.replica.executed[-len(operations):]]


def _outsider_refresh(keys, epoch):
    outsider = keygen(random.Random(3), keys.public.group)
    return reconfig.reconfigure_operation(
        "refresh", epoch, 0, outsider, random.Random(4)
    )


def test_replayed_rejection_stays_rejected(tmp_path):
    """A restart at epoch 1 replays its history from the genesis record:
    operations that were rejected live (tampered, wrong epoch) replay as
    rejected, and the one that opened epoch 1 replays as accepted
    without starting a second resharing."""
    keys = _deployment(tmp_path)
    save_public(tmp_path / GENESIS_FILE, keys.public)
    save_epoch(tmp_path, 1)  # the keystore has since moved on
    host = ReplicaHost(tmp_path, 0)
    good = _refresh_op(keys, 1)
    tampered = good[:1] + ("remove",) + good[2:]
    assert _replay(host, tampered, _refresh_op(keys, 3), good) == [
        ("reconfig", "rejected", 0),
        ("reconfig", "rejected", 0),
        ("reconfig", "accepted", 1),
    ]
    assert host.membership.epoch == 1
    assert host.phase == SERVING


def test_replay_without_archives_keeps_the_live_verdicts(tmp_path):
    """Whatever the disk holds, a replayed Reconfigure gets the verdict
    every live member recorded: with no per-epoch archive anywhere, an
    outsider-signed refresh for epoch 1 is still rejected and the
    genuine one accepted."""
    keys = _deployment(tmp_path)
    host = ReplicaHost(tmp_path, 0)
    host.epoch = 1  # a keystore at epoch 1; no archive was ever written
    assert _replay(host, _outsider_refresh(keys, 1), _refresh_op(keys, 1)) == [
        ("reconfig", "rejected", 0),
        ("reconfig", "accepted", 1),
    ]
    assert not list(tmp_path.glob("public-epoch-*"))


def test_a_keystore_past_epoch_0_needs_the_genesis_record(tmp_path):
    keys = _deployment(tmp_path)
    save_epoch(tmp_path, 2)
    with pytest.raises(keystore.KeystoreError, match=GENESIS_FILE):
        ReplicaHost(tmp_path, 0)
    save_public(tmp_path / GENESIS_FILE, keys.public)
    assert ReplicaHost(tmp_path, 0).membership == reconfig.Membership.of(
        0, keys.public
    )


def test_live_rejection_is_pure(tmp_path):
    keys = _deployment(tmp_path)
    host = ReplicaHost(tmp_path, 0)
    good = _refresh_op(keys, 1)
    tampered = good[:1] + ("remove",) + good[2:]
    assert host._intercept(_req(900, 1, tampered)) == ("reconfig", "rejected", 0)
    assert host.phase == SERVING
    assert host.membership.epoch == 0


# -- the flush watchdog: scaled deadline, retry ladder ------------------------------


class _StubSession:
    def __init__(self):
        self.flushes = 0

    def flush(self, ctx):
        self.flushes += 1


class _StubRuntime:
    def __init__(self, session, instance):
        self.instances = {session: instance}

    def result(self, session):
        return None


def _run_watchdog(tmp_path, monkeypatch, io_timeout, settled):
    """Arm the watchdog on a stub session under a fake clock; returns
    the stub, the sleeps it asked for and the retries it made."""
    _deployment(tmp_path)
    host = ReplicaHost(tmp_path, 0)
    host.io_timeout = io_timeout
    instance = _StubSession()
    host.runtime = _StubRuntime("s", instance)
    real_sleep = asyncio.sleep
    delays, retries = [], []

    async def fake_sleep(delay):
        delays.append(delay)
        await real_sleep(0)

    async def scenario():
        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        host._watch_flush(
            "s", settled=lambda: settled(instance), retry=lambda: retries.append(1)
        )
        for _ in range(10):
            await real_sleep(0)

    asyncio.run(scenario())
    return instance, delays, retries


def test_watchdog_deadline_scales_with_io_timeout(tmp_path, monkeypatch):
    """The flush fires at io_timeout/8 — scaled, no hidden 10s cap —
    and a session still unsettled after a full I/O budget is retried."""
    instance, delays, retries = _run_watchdog(
        tmp_path, monkeypatch, 120.0, settled=lambda instance: False
    )
    assert delays == [15.0, 105.0]
    assert instance.flushes == 1
    assert retries == [1]


def test_watchdog_settled_session_is_left_alone(tmp_path, monkeypatch):
    instance, _, retries = _run_watchdog(
        tmp_path, monkeypatch, 1.0, settled=lambda instance: True
    )
    assert instance.flushes == 0
    assert retries == []


def test_watchdog_settling_after_flush_stops_the_retry(tmp_path, monkeypatch):
    # The flush unwedged the session before the second check.
    instance, _, retries = _run_watchdog(
        tmp_path, monkeypatch, 1.0, settled=lambda instance: instance.flushes > 0
    )
    assert instance.flushes == 1
    assert retries == []


def test_watchdog_failure_is_counted_and_kept(tmp_path, monkeypatch, capsys):
    """A raise inside ``flush()`` ends the ladder — the host records it
    where the transport records its own task failures, and prints it,
    instead of leaving a paused cluster with no trace of why."""
    failure = RuntimeError("flush blew up")

    def broken_flush(self, ctx):
        raise failure

    monkeypatch.setattr(_StubSession, "flush", broken_flush)
    _deployment(tmp_path)
    host = ReplicaHost(tmp_path, 0)
    host.runtime = _StubRuntime("s", _StubSession())
    real_sleep = asyncio.sleep
    retries = []

    async def scenario():
        monkeypatch.setattr(asyncio, "sleep", lambda delay: real_sleep(0))
        host._watch_flush("s", settled=lambda: False, retry=lambda: retries.append(1))
        for _ in range(10):
            await real_sleep(0)

    asyncio.run(scenario())
    assert retries == []
    assert host.network.errors == [failure]
    assert host.network.trace.counters["host.task_errors"] == 1
    assert "flush blew up" in capsys.readouterr().err


# -- peer lifecycle: forget on remove, authoritative address on add -----------------


def test_forget_peer_drops_address_key_and_silences_late_sends():
    async def scenario():
        net = TransportNetwork(
            0,
            {0: ("127.0.0.1", 0), 1: ("127.0.0.1", 45001)},
            {1: bytes(range(32))},
        )
        await net.start()
        try:
            net.forget_peer(1)
            assert 1 not in net.addresses
            assert 1 not in net.channel_keys
            assert net.parties == [0]
            # A closed epoch's protocol instance may still address the
            # departed peer: dropped quietly, counted, never an error.
            net.send(0, 1, ("late", "frame"))
            assert net.trace.counters.get("transport.departed_drops") == 1
            # Truly unknown recipients still fail loudly.
            try:
                net.send(0, 9, ("oops",))
            except ValueError:
                pass
            else:
                raise AssertionError("unknown recipient must raise")
        finally:
            await net.close()

    asyncio.run(scenario())


def test_admit_peer_overwrites_stale_address():
    async def scenario():
        stale = ("10.0.0.9", 1)
        net = TransportNetwork(
            0, {0: ("127.0.0.1", 0), 4: stale}, {4: bytes(range(32))}
        )
        await net.start()
        try:
            # The ordered add is authoritative even when a stale entry
            # for a previous holder of the id survived (no setdefault).
            net.admit_peer(4, ("127.0.0.1", 45002), bytes(range(32, 64)))
            assert net.addresses[4] == ("127.0.0.1", 45002)
            assert net.channel_keys[4] == bytes(range(32, 64))
            # And after a remove-then-add cycle the peer is sendable again.
            net.forget_peer(4)
            net.admit_peer(4, ("127.0.0.1", 45003), bytes(range(64, 96)))
            assert 4 not in net._forgotten
            net.send(0, 4, ("hello",))  # queues for dial; must not raise
        finally:
            await net.close()

    asyncio.run(scenario())


# -- end to end: back-to-back reconfigurations over TCP -----------------------------


async def _until(predicate, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never held")
        await asyncio.sleep(0.05)


def test_back_to_back_refreshes_converge(tmp_path):
    """Order a second Reconfigure right behind the first: the session
    the first one closed orders nothing more, so the second is ordered
    in epoch 1's, every honest replica records accepted for both and
    ends at epoch 2."""

    async def scenario():
        keys = _deployment(tmp_path, seed=31)
        async with tcp_cluster(tmp_path, client_seed=13) as (hosts, client):
            op1 = _refresh_op(keys, 1, seed=41)
            op2 = _refresh_op(keys, 2, seed=42)
            first = await client.call(op1, timeout=60.0)
            assert first.result == ("reconfig", "accepted", 1)
            # Immediately behind: typically ordered while the epoch-1
            # resharing is still in flight somewhere.
            second = await client.call(op2, timeout=60.0)
            assert second.result == ("reconfig", "accepted", 2)
            after = await client.call(("set", "after", 3), timeout=60.0)
            assert after.result == ("ok", 1)
            await _until(
                lambda: all(h.epoch == 2 for h in hosts.values()), timeout=60
            )
            # Every replica recorded the same verdict sequence.
            histories = {
                tuple(
                    (request.operation, result)
                    for request, result in host.replica.executed
                )
                for host in hosts.values()
            }
            assert len(histories) == 1
            # Replay needs the genesis record and nothing per epoch.
            assert [p.name for p in tmp_path.glob("public-epoch-*")] == [
                GENESIS_FILE
            ]
            for host in hosts.values():
                assert host.membership == reconfig.Membership.of(2, host.public)

    asyncio.run(scenario())


# -- an epoch ends at its Reconfigure ------------------------------------------------


def _operations(host):
    return [request.operation for request, _result in host.replica.executed]


@pytest.mark.parametrize("early", [(0,), (0, 1)], ids=["one-early", "two-early"])
def test_staggered_epoch_switch_keeps_every_host_in_step(tmp_path, early):
    """The ``early`` hosts enter epoch 1 while the others hold their
    finished resharing; a write submitted in between, and one made on
    epoch 1, must execute at all four in the same sequence.  (While the
    closing session kept ordering, the late hosts ordered the first
    write there without the early ones and opened epoch 1 a round
    later, leaving them behind.  With two early hosts, a late host that
    rebased after its replica met their round-2 proposals dropped them
    and the round never gathered a quorum.)"""

    async def scenario():
        keys = _deployment(tmp_path, seed=81)
        late = [p for p in range(4) if p not in early]
        async with tcp_cluster(tmp_path, client_seed=82) as (hosts, client):
            held = []
            for party in late:
                hosts[party]._complete_reshare = (
                    lambda protocol, output, party=party: held.append(
                        (party, protocol, output)
                    )
                )
            verdict = await client.call(_refresh_op(keys, 1), timeout=60.0)
            assert verdict.result == ("reconfig", "accepted", 1)
            await _until(
                lambda: all(hosts[p].epoch == 1 for p in early) and len(held) == len(late)
            )
            first = asyncio.ensure_future(client.call(("set", "a", 1), timeout=60.0))
            # The write reached the late hosts (queued, or ordered).
            await _until(lambda: all(
                len(set(hosts[p].replica.abc.queue) | hosts[p].replica.abc.delivered) == 2
                for p in late
            ))
            for party, protocol, output in held:
                del hosts[party]._complete_reshare
                hosts[party]._complete_reshare(protocol, output)
            assert (await first).result[0] == "ok"
            assert (await client.call(("set", "b", 2), timeout=60.0)).result[0] == "ok"
            await _until(
                lambda: all(len(h.replica.executed) == 3 for h in hosts.values()),
                timeout=hosts[0].io_timeout,
            )
            assert {tuple(_operations(h)) for h in hosts.values()} == {
                (_refresh_op(keys, 1), ("set", "a", 1), ("set", "b", 2))
            }

    asyncio.run(scenario())


def test_a_resharing_done_on_the_spot_enters_after_the_round(tmp_path):
    """A host whose resharing has already run when it delivers the
    Reconfigure enters the epoch as soon as the round ends: at round 1,
    with no handler error, and the write behind the Reconfigure in the
    same batch is delivered once, in the new session's round 2.  (Entered
    from inside the delivery, the host rebased onto round 0 and the
    delivery loop then raised on the decision rebase had dropped.)"""

    async def scenario():
        keys = _deployment(tmp_path, seed=85)
        async with tcp_cluster(tmp_path, client_seed=86) as (hosts, client):
            late = hosts[0]
            abc = late.replica.abc
            held, entered = [], []
            abc._on_decision = lambda *args: held.append(args)
            enter = late._enter_epoch
            late._enter_epoch = lambda *args, **fields: (
                entered.append(abc.round), enter(*args, **fields)
            )
            op = _refresh_op(keys, 1)
            write = _req(CLIENT_BASE, 2, ("set", "a", 1)).encode()
            for host in hosts.values():
                # One batch at every host: the write is the round's tail.
                host.replica.abc._enqueue(_req(CLIENT_BASE, 1, op).encode())
                host.replica.abc._enqueue(write)
                host.replica.abc._maybe_start_rounds(
                    Context(host.runtime, epoch_service_session(0))
                )
            # Round 1 decides without host 0 delivering it; host 0 runs
            # the resharing the Reconfigure opens ahead of that delivery.
            _accepted, successor = reconfig.next_membership(op, late.membership)
            session = reshare_session(1, "reshare")
            late.runtime.spawn(session, late._resharing(successor))
            await _until(lambda: late.runtime.result(session) is not None and all(
                hosts[p].epoch == 1 for p in (1, 2, 3)
            ))
            assert held and abc.round == 0
            del abc._on_decision

            async def release():
                for args in held:
                    abc._on_decision(*args)

            late.network.spawn(release(), "host.task_errors")
            await _until(lambda: all(
                len(h.replica.executed) == 2 for h in hosts.values()
            ))
            assert entered == [1]
            assert not any(h.network.errors for h in hosts.values())
            for host in hosts.values():
                assert _operations(host) == [op, ("set", "a", 1)]
                log = host.replica.abc.delivered_log
                assert [r for p, r in log if p == write] == [2]

    asyncio.run(scenario())


# -- a rescued replica keeps its clients --------------------------------------------


def test_stale_adoption_keeps_the_clients(tmp_path):
    """Adopting a missed epoch forgets the servers it retired, not the
    clients, which are no members and have ids above every ``n``: the
    rescued replica must still be able to answer them."""
    from repro.smr.state_machine import Reply

    async def scenario():
        _deployment(tmp_path)
        host = ReplicaHost(tmp_path, 0)
        await host.start()
        try:
            network = host.network
            client_key = network.channel_keys[CLIENT_BASE]
            # A server the missed epoch retired is in the address book
            # too: it goes, the client stays.
            network.admit_peer(4, ("127.0.0.1", 45004), bytes(32))
            host._rejoin(1, host.public)
            assert host.epoch == 1
            assert 4 not in network.addresses
            assert network.addresses[CLIENT_BASE]
            assert network.channel_keys[CLIENT_BASE] == client_key
            reply = Reply(
                replica=0, client=CLIENT_BASE, nonce=1, result=("ok", 1),
                signature_share=None,
            )
            network.send(0, CLIENT_BASE, (("service", 1), reply))
            assert not network.trace.counters.get("transport.departed_drops")
            assert len(network._channels[CLIENT_BASE].pending) == 1
            # The next epoch it misses admits a member.  The channel key
            # it derives for that member must survive its own restart:
            # every entry into an epoch rewrites server-<i>.json too.
            wider = _with_a_fifth_member(host.public)
            host._rejoin(2, wider)
            key = dh_channel_key(
                wider.group, host.keys.signing_key.x, wider.verify_keys[4].h
            )
            assert network.channel_keys[4] == key
            restarted = ReplicaHost(tmp_path, 0)
            assert restarted.epoch == 2 and restarted.public.n == 5
            assert restarted.keys.channel_keys[4] == key
        finally:
            await host.close()

    asyncio.run(scenario())


# -- one way into an epoch, one phase value ------------------------------------------


def _assert_entered(host, directory, closed):
    """What every entry into an epoch must leave behind: the three key
    files agree with the host, the runtime serves under the new keys,
    the replica sits at the new session with its hooks, its broadcast is
    open, and the epoch it closed (if any) is tombstoned — the genesis
    record kept if that was epoch 0."""
    public = keystore.load_public(directory / "public.json")
    assert keystore.public_to_dict(public) == keystore.public_to_dict(host.public)
    stored = keystore.load_party(directory / f"server-{host.party}.json", public)
    assert keystore.party_to_dict(stored) == keystore.party_to_dict(host.keys)
    assert load_epoch(directory) == host.epoch
    assert host.runtime.public is host.public and host.runtime.keys is host.keys
    assert host.phase == SERVING
    replica = host.replica
    assert host.runtime.instances[epoch_service_session(host.epoch)] is replica
    assert replica.intercept == host._intercept
    assert replica.on_membership_info == host._on_stale_info
    info = replica.membership_info
    assert info.epoch == host.epoch
    assert reconfig.verify_membership_info(info, host.public)
    assert not replica.abc.closed
    if closed is not None:
        assert (directory / GENESIS_FILE).exists()
        tombstone = host.runtime.instances[epoch_service_session(closed)]
        assert isinstance(tombstone, EpochTombstone) and tombstone.info == info


def _with_a_fifth_member(public):
    """The configuration of an epoch that admitted party 4 while the
    members kept their identity keys (as a resharing would leave it)."""
    wider = deal_system(5, random.Random(74), t=1, group=small_group()).public
    data = keystore.public_to_dict(wider)
    data["verify_keys"].update(keystore.public_to_dict(public)["verify_keys"])
    return keystore.public_from_dict(data)


@pytest.mark.parametrize("way", ["dkg", "reshare", "stale"])
def test_every_way_into_an_epoch_leaves_the_same_invariants(tmp_path, way):
    async def scenario():
        hosts, client, closed = [], None, 0
        try:
            if way == "dkg":
                provision_dkg_deployment(4, 1, random.Random(71), tmp_path)
                hosts = [ReplicaHost(tmp_path, p, dkg_boot=True) for p in range(4)]
                closed = None  # epoch 0 of a dealerless boot closes nothing
            else:
                keys = _deployment(tmp_path, seed=72)
                hosts = [ReplicaHost(tmp_path, p) for p in range(4 if way == "reshare" else 1)]
            for host in hosts:
                await host.start()
            if way == "reshare":
                client = await attach_client(tmp_path, random.Random(73))
                verdict = await client.call(_refresh_op(keys, 1), timeout=60.0)
                assert verdict.result == ("reconfig", "accepted", 1)
            elif way == "stale":
                hosts[0]._rejoin(1, _with_a_fifth_member(keys.public))
                assert 4 in hosts[0].keys.channel_keys
            await _until(
                lambda: all(
                    h.replica is not None and h.epoch == (closed is not None)
                    for h in hosts
                ),
                timeout=60,
            )
            for host in hosts:
                _assert_entered(host, tmp_path, closed)
        finally:
            if client is not None:
                await client.network.close()
            for host in hosts:
                await host.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("defect", ["missing-server", "foreign-own-key", "version-1"])
def test_dkg_boot_refuses_a_bundle_without_its_pki(tmp_path, defect):
    """A dealerless boot trusts the provisioned verify keys and nothing
    else, so a bundle that does not list exactly servers 0..n-1, that
    lists another identity as ours, or that predates the list is
    refused before anything listens."""
    provision_dkg_deployment(4, 1, random.Random(76), tmp_path)
    path = tmp_path / "bootstrap-0.json"
    data = json.loads(path.read_text())
    assert data["version"] == 2
    if defect == "missing-server":
        del data["verify_keys"]["3"]
    elif defect == "foreign-own-key":
        data["verify_keys"]["0"] = data["verify_keys"]["1"]
    else:
        data["version"] = 1
        del data["verify_keys"]
    path.write_text(json.dumps(data))
    with pytest.raises(keystore.KeystoreError):
        ReplicaHost(tmp_path, 0, dkg_boot=True)


def _votes(keys, epoch, public, voters):
    return [
        (voter, reconfig.signed_membership_info(
            voter, epoch, keystore.public_to_dict(public),
            keys.private[voter].signing_key, random.Random(voter),
        ))
        for voter in voters
    ]


def test_membership_votes_count_only_when_serving_or_stalled(tmp_path):
    """While a resharing is in flight the peers' votes for its epoch are
    ignored — this replica is about to get there itself; once the
    watchdog has marked it stalled they are the way back in."""

    async def scenario():
        keys = _deployment(tmp_path, seed=75)
        host = ReplicaHost(tmp_path, 0)
        await host.start()
        try:
            votes = _votes(keys, 1, host.public, (1, 2))
            for phase in (Phase("resharing", 1), Phase("booting", 1), RETIRED):
                host.phase = phase
                for voter, info in votes:
                    host._on_stale_info(voter, info)
                assert host.epoch == 0 and host.phase == phase
                assert host._stale_votes == {}
            host.phase = Phase("stalled", 1)
            for voter, info in votes:
                host._on_stale_info(voter, info)
            assert host.epoch == 1 and host.phase == SERVING
        finally:
            await host.close()

    asyncio.run(scenario())


def test_a_relayed_membership_record_counts_for_no_one(tmp_path):
    """Party 1 forwards party 2's genuine record: that is one signer,
    not two, so with t = 1 the replica waits for a second member's own
    record, as a client does."""

    async def scenario():
        keys = _deployment(tmp_path, seed=77)
        host = ReplicaHost(tmp_path, 0)
        await host.start()
        try:
            [(_, signed_by_2)] = _votes(keys, 1, host.public, (2,))
            host._on_stale_info(1, signed_by_2)  # relayed
            host._on_stale_info(2, signed_by_2)
            assert host.epoch == 0
            [(_, signed_by_3)] = _votes(keys, 1, host.public, (3,))
            host._on_stale_info(3, signed_by_3)
            assert host.epoch == 1
        finally:
            await host.close()

    asyncio.run(scenario())


class _StubProtocol(_StubSession):
    def on_start(self, ctx):
        pass

    def on_message(self, ctx, sender, message):
        pass


@pytest.mark.parametrize("retires", [False, True])
def test_ladder_respawns_until_the_phase_moves_on(tmp_path, monkeypatch, retires):
    """An unsettled session is retried under the next attempt's tag and
    marks the host stalled; a host that learned it was retired (or
    entered the epoch) in the meantime is left alone."""
    real_sleep = asyncio.sleep
    first, second = reshare_session(1, "reshare"), reshare_session(1, ("reshare", 1))

    async def scenario():
        _deployment(tmp_path, seed=76)
        host = ReplicaHost(tmp_path, 0)
        await host.start()

        async def fake_sleep(delay):
            await real_sleep(0)
            if retires:
                host.phase = RETIRED

        try:
            monkeypatch.setattr(asyncio, "sleep", fake_sleep)
            host.phase = Phase("resharing", 1)
            host._run_ladder(1, "replica-reshare-retry", _StubProtocol, None, epoch=1)
            for _ in range(10):
                await real_sleep(0)
            if retires:
                assert host.runtime.instances[first].flushes == 0
                assert second not in host.runtime.instances
            else:
                assert host.runtime.instances[first].flushes == 1
                assert second in host.runtime.instances
                assert host.phase == Phase("stalled", 1)
        finally:
            monkeypatch.setattr(asyncio, "sleep", real_sleep)
            await host.close()

    asyncio.run(scenario())
