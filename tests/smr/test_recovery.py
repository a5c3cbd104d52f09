"""Crash-recovery (Section 6): a restarted replica rebuilds its state."""

from repro import codec
from repro.core.atomic_broadcast import AbcConfig
from repro.net.scheduler import PartitionScheduler
from repro.smr import KeyValueStore, build_service
from repro.smr.replica import RecoverLog, RecoverQuery, service_session
from repro.smr.state_machine import Request

from ..helpers import record_sends


def _deploy(seed=51, abc_config=None):
    dep = build_service(4, KeyValueStore, t=1, seed=seed, abc_config=abc_config)
    client = dep.new_client()
    dep.network.start()
    return dep, client


def _drain(dep):
    dep.network.run(max_steps=600_000)


def test_recovered_replica_matches_peers():
    dep, client = _deploy()
    nonces = [client.submit(("set", f"k{i}", i)) for i in range(3)]
    dep.run_until_complete(client, nonces)
    _drain(dep)

    dep.network.crash(2)
    n4 = client.submit(("set", "during-crash", 1))
    dep.run_until_complete(client, [n4])
    _drain(dep)

    fresh = dep.rejoin(2, seed=99)
    _drain(dep)
    assert fresh.state_machine.snapshot() == dep.replicas[0].state_machine.snapshot()
    assert fresh.abc.round == dep.replicas[0].abc.round
    assert not fresh.recovering


def test_recovered_replica_participates_again():
    dep, client = _deploy(seed=52)
    dep.run_until_complete(client, [client.submit(("set", "a", 1))])
    _drain(dep)
    dep.network.crash(1)
    dep.run_until_complete(client, [client.submit(("set", "b", 2))])
    _drain(dep)
    fresh = dep.rejoin(1, seed=99)
    _drain(dep)
    # New request processed by everyone, including the rejoined replica.
    dep.run_until_complete(client, [client.submit(("set", "c", 3))])
    _drain(dep)
    snapshots = {r.state_machine.snapshot() for r in dep.replicas.values()}
    assert len(snapshots) == 1
    assert fresh.state_machine.data == {"a": 1, "b": 2, "c": 3}


def test_recovery_does_not_resend_client_replies():
    dep, client = _deploy(seed=53)
    nonce = client.submit(("set", "x", 1))
    dep.run_until_complete(client, [nonce])
    _drain(dep)
    dep.network.crash(3)
    _drain(dep)
    replies_before = dict(client.completed)
    fresh = dep.rejoin(3, seed=99)
    _drain(dep)
    assert fresh.executed  # replayed
    assert client.completed == replies_before  # no duplicate answers


def test_lying_peer_cannot_poison_recovery():
    """A single (corruptible) peer reporting a forged log is ignored:
    adoption needs an honest-containing set reporting identically."""
    dep, client = _deploy(seed=54)
    dep.run_until_complete(client, [client.submit(("set", "real", 1))])
    _drain(dep)
    dep.network.crash(2)
    _drain(dep)
    fresh = dep.rejoin(2, seed=99)
    # Inject a forged log from a single (corrupt) sender alongside the
    # genuine responses.
    forged = RecoverLog(entries=((("req", 9999, 1, ("set", "fake", 666)), 1),), round=9)
    dep.network.send(0, 2, (service_session(), forged))
    _drain(dep)
    assert "fake" not in fresh.state_machine.data
    assert fresh.state_machine.data.get("real") == 1


def test_a_round_spelled_true_in_a_recovery_log_is_never_adopted():
    """A liar (the lowest id) answers with the honest log but for one
    round spelled ``True``: equal to the honest logs (``True == 1``), so
    honest answers would vouch for it, yet it encodes apart.  Adopted,
    its ``True`` would land in the delivered log and could become the
    resume round; admission drops it, and the rejoiner adopts the
    honest log."""
    dep, client = _deploy(seed=59)
    dep.run_until_complete(client, [client.submit(("set", "real", 1))])
    _drain(dep)
    dep.network.crash(2)
    _drain(dep)
    fresh = dep.rejoin(2, seed=99)
    honest = dep.replicas[1].abc
    assert list(honest.delivered.values()) == [1]
    lie = tuple((payload, True) for payload in honest.delivered)
    dep.network.send(0, 2, (service_session(), RecoverLog(entries=lie, round=honest.round)))
    _drain(dep)
    assert dep.network.trace.counters["admission.dropped"] == 1
    assert not fresh.recovering
    assert [type(r) for r in fresh.abc.delivered.values()] == [int]
    assert type(fresh.abc.round) is int
    assert fresh.state_machine.data == {"real": 1}


def test_recovery_under_active_partition_completes_after_heal():
    """A replica rejoining *behind a partition* still recovers: the
    scheduler postpones every message crossing the cut until the
    partition heals, and the Section 6 state transfer — which promises
    nothing about timing — completes correctly afterwards."""
    dep, client = _deploy(seed=56)
    dep.run_until_complete(client, [client.submit(("set", "a", 1))])
    _drain(dep)
    dep.network.crash(2)
    dep.run_until_complete(client, [client.submit(("set", "b", 2))])
    _drain(dep)

    # Partition the rejoining replica for the next 50 deliveries.  A
    # concurrent client operation keeps non-crossing traffic pending, so
    # the scheduler genuinely defers the RecoverRequest broadcast and the
    # peers' RecoverLog answers until the cut heals (the scheduler's
    # eventual-delivery fallback only fires when *nothing else* exists).
    dep.network.scheduler = PartitionScheduler({2}, duration=50)
    fresh = dep.rejoin(2, seed=99)
    nonce = client.submit(("set", "c", 3))
    dep.run_until_complete(client, [nonce])
    _drain(dep)

    assert not fresh.recovering
    assert fresh.state_machine.snapshot() == dep.replicas[0].state_machine.snapshot()
    # The rejoined replica holds the pre-crash history, the operation it
    # missed while down, and the one ordered while it was partitioned.
    assert fresh.state_machine.data == {"a": 1, "b": 2, "c": 3}
    # The partition really was in force while recovery ran.
    assert dep.network.scheduler._delivered > 50


def test_a_replica_left_behind_its_window_catches_up_by_state_transfer():
    """Party 2 sits behind a partition for 14 serial commits, more than
    its proposal window (pipeline depth 1 plus 8 rounds of slack): the
    proposals beyond the window are not buffered but counted as lag
    evidence, ``on_lag`` fires, and state transfer brings party 2 to the
    others' round and state."""
    dep, client = _deploy(seed=58)
    scheduler = PartitionScheduler({2}, duration=1 << 30)
    dep.network.scheduler = scheduler
    lagging = dep.replicas[2]
    fired = []
    on_lag = lagging.abc.on_lag
    lagging.abc.on_lag = lambda: (fired.append(lagging.abc.round), on_lag())
    for i in range(14):
        dep.run_until_complete(client, [client.submit(("set", f"k{i}", i))])
    ahead = dep.replicas[0].abc.round
    assert lagging.abc.round + lagging.abc._window() < ahead
    scheduler.isolated.clear()  # heal
    _drain(dep)
    assert fired == [0] and not lagging.recovering
    assert {replica.abc.round for replica in dep.replicas.values()} == {ahead}
    assert lagging.state_machine.snapshot() == dep.replicas[0].state_machine.snapshot()
    assert len(lagging.state_machine.data) == 14


def test_recovery_while_pipelined_rounds_in_flight():
    """Crash and rejoin *mid-stream* under batching + pipelining: the
    rejoined replica must adopt a vouched prefix, resume at the right
    round, and converge — no double delivery, no stuck slot."""
    config = AbcConfig(max_batch=2, pipeline_depth=3)
    dep, client = _deploy(seed=57, abc_config=config)
    prefix = [client.submit(("set", f"k{i}", i)) for i in range(2)]
    dep.run_until_complete(client, prefix)
    _drain(dep)

    dep.network.crash(2)
    # Enough load that several rounds overlap; run only partially so
    # rounds are genuinely still in flight when the replica rejoins.
    pending = [client.submit(("set", f"m{i}", i)) for i in range(6)]
    dep.network.run(max_steps=3_000)
    fresh = dep.rejoin(2, seed=99)
    dep.run_until_complete(client, pending)
    _drain(dep)
    dep.run_until_complete(client, [client.submit(("set", "after", 1))])
    _drain(dep)

    assert not fresh.recovering
    snapshots = {r.state_machine.snapshot() for r in dep.replicas.values()}
    assert len(snapshots) == 1
    assert fresh.state_machine.data.get("after") == 1
    for replica in dep.replicas.values():  # delivered exactly once
        assert len(replica.abc.delivered) == len(replica.executed)
    assert fresh.abc.round == dep.replicas[0].abc.round


def test_inflated_round_claim_cannot_stall_recovery():
    """A corrupt responder claiming a far-future round (with an empty
    log) finds no honest-containing set of supporters, so the rejoiner
    neither adopts it nor fast-forwards past live rounds."""
    dep, client = _deploy(seed=58)
    dep.run_until_complete(client, [client.submit(("set", "real", 1))])
    _drain(dep)
    dep.network.crash(2)
    _drain(dep)
    fresh = dep.rejoin(2, seed=99)
    forged = RecoverLog(entries=(), round=50)
    dep.network.send(0, 2, (service_session(), forged))
    _drain(dep)
    # The claim was ignored: the rejoiner sits at the peers' true round
    # and keeps executing new operations (no skipped-slot deadlock).
    assert fresh.abc.round == dep.replicas[0].abc.round
    dep.run_until_complete(client, [client.submit(("set", "post", 2))])
    _drain(dep)
    snapshots = {r.state_machine.snapshot() for r in dep.replicas.values()}
    assert len(snapshots) == 1
    assert fresh.state_machine.data == {"real": 1, "post": 2}


def test_a_rejoined_replica_recovers_confidential_history():
    """Recovery carries an opened ciphertext's plaintext beside it: a
    replica that was down while plain and confidential requests were
    ordered replays both from its peers' logs, executes them, and then
    takes part in opening the next confidential request."""
    dep, client = _deploy(seed=55)
    dep.run_until_complete(client, [client.submit_confidential(("set", "a", 1))])
    _drain(dep)
    dep.network.crash(2)
    dep.run_until_complete(client, [
        client.submit(("set", "b", 2)), client.submit_confidential(("set", "c", 3)),
    ])
    _drain(dep)
    fresh = dep.rejoin(2, seed=99)
    _drain(dep)
    assert not fresh.recovering
    assert fresh.state_machine.data == {"a": 1, "b": 2, "c": 3}
    assert len(fresh.stage.opened) == 2
    dep.run_until_complete(client, [client.submit_confidential(("set", "d", 4))])
    _drain(dep)
    assert len({r.state_machine.snapshot() for r in dep.replicas.values()}) == 1


def test_a_liar_changing_a_plaintext_is_never_adopted():
    """One peer answers recovery with the honest log but for the
    plaintext beside a ciphertext entry.  The plaintext is inside what
    the peers vouch for, so no honest answer supports the lie, and the
    rejoiner adopts the honest log."""
    dep, client = _deploy(seed=56)
    nonce = client.submit_confidential(("set", "real", 1))
    dep.run_until_complete(client, [nonce])
    _drain(dep)
    dep.network.crash(2)
    _drain(dep)
    liar = dep.replicas[0]
    entries, round_number = liar.history()
    forged = codec.dumps(Request(client.client_id, nonce, ("set", "fake", 666)).encode())
    lie = tuple((e[0], e[1], forged) if len(e) == 3 else e for e in entries)
    assert lie != entries
    liar._on_recover_query = lambda ctx, sender: ctx.send(sender, RecoverLog(lie, round_number))
    fresh = dep.rejoin(2, seed=99)
    _drain(dep)
    assert not fresh.recovering
    assert fresh.state_machine.data == {"real": 1}


def test_a_client_reads_no_history():
    """A log holds every opened plaintext, and clients hold channel keys
    too: a replica answers a ``RecoverQuery`` from a server, never from
    a client."""
    dep, client = _deploy(seed=57)
    dep.run_until_complete(client, [client.submit_confidential(("set", "secret", 1))])
    _drain(dep)
    sent = record_sends(dep.network)
    dep.network.send(client.client_id, 0, (service_session(), RecoverQuery()))
    _drain(dep)
    assert not [m for m in sent if isinstance(m, RecoverLog)]
    dep.network.send(1, 0, (service_session(), RecoverQuery()))
    _drain(dep)
    (log,) = [m for m in sent if isinstance(m, RecoverLog)]
    assert [len(entry) for entry in log.entries] == [3]


def test_a_log_ends_at_the_first_entry_the_stage_holds():
    """``history`` cuts ``abc.delivered`` at the stage's first held
    entry, found by the entry: one a replayed log recorded behind it
    was executed, yet the log stops before the held one."""
    dep, client = _deploy(seed=58)
    dep.run_until_complete(client, [client.submit(("set", "a", 1))])
    _drain(dep)
    replica = dep.replicas[0]
    (done,), rnd = replica.history()
    held = Request(client.client_id, 90, ("set", "held", 2)).encode()
    behind = Request(client.client_id, 91, ("set", "behind", 3)).encode()
    replica.abc.record(held, rnd + 1)
    replica.stage.waiting.append((held, rnd + 1, None))
    replica.abc.record(behind, rnd + 2)
    assert replica.history() == ((done,), rnd)
