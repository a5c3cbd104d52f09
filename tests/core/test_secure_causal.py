"""Secure causal atomic broadcast: order, confidentiality, causality.

The stage sits on a replica's delivery path (``replica.stage``); these
tests drive it through a service of four replicas and read what it
opens and passes on.
"""

import random
from dataclasses import replace

import pytest

from helpers import ctx_for

from repro.core.atomic_broadcast import payload_digest
from repro.core.secure_causal import ScDecryptionShare
from repro.crypto.dealer import CLIENT_BASE
from repro.net.adversary import SilentNode
from repro.net.scheduler import RandomScheduler, ReorderScheduler
from repro.smr import KeyValueStore, build_service
from repro.smr.replica import SubmitEncrypted, service_session

SESSION = service_session()


def _service(seed, scheduler=None, parties=4):
    dep = build_service(4, KeyValueStore, t=1, seed=seed, scheduler=scheduler)
    for party in range(parties, 4):
        dep.controller.corrupt(dep.network, party, SilentNode())
    logs = {p: _opened(dep.replicas[p]) for p in range(parties)}
    dep.new_client()  # CLIENT_BASE, the sender of every submission
    dep.network.start()
    return dep, logs


def _opened(replica) -> list[bytes]:
    """Every plaintext ``replica``'s stage passes on from now on, in order."""
    seen: list[bytes] = []
    deliver = replica.stage.on_deliver

    def recording(ctx, payload, rnd, plaintext) -> None:
        if plaintext is not None:
            seen.append(plaintext)
        deliver(ctx, payload, rnd, plaintext)

    replica.stage.on_deliver = recording
    return seen


def _encrypt(public, message, label, seed):
    return public.encryption.encrypt(message, label, random.Random(seed))


def _submit(dep, ciphertext, parties=range(4)):
    for party in parties:
        dep.network.send(CLIENT_BASE, party, (SESSION, SubmitEncrypted(ciphertext)))


@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_same_plaintext_order_everywhere(scheduler):
    dep, logs = _service(1, scheduler())
    for k in range(3):
        _submit(dep, _encrypt(dep.keys.public, f"request-{k}".encode(), b"c", seed=k))
    dep.network.run(until=lambda: all(len(log) >= 3 for log in logs.values()),
                    max_steps=600_000)
    assert all(log == logs[0] for log in logs.values())
    assert sorted(logs[0]) == [b"request-0", b"request-1", b"request-2"]


def test_invalid_ciphertext_refused_at_submission():
    dep, logs = _service(2)
    ct = _encrypt(dep.keys.public, b"m", b"L", seed=3)
    _submit(dep, replace(ct, payload=bytes(len(ct.payload))))
    dep.network.run(max_steps=200_000)
    assert all(log == [] for log in logs.values())
    assert all(not r.abc.delivered for r in dep.replicas.values())


def test_plaintext_hidden_until_delivery():
    """No honest server sends a decryption share for a ciphertext it has
    not a-delivered: before that, no set of shares exists anywhere."""
    dep, logs = _service(4)
    ct = _encrypt(dep.keys.public, b"secret-bid: 900", b"auction", seed=5)
    _submit(dep, ct)
    payload = ("ct", ct)
    violations = []
    original_step = dep.network.step

    def spying_step():
        for env in dep.network.pending:
            if isinstance(env.payload[1], ScDecryptionShare):
                if payload not in dep.replicas[env.sender].abc.delivered:
                    violations.append(env)
        return original_step()

    dep.network.step = spying_step
    dep.network.run(until=lambda: all(len(log) >= 1 for log in logs.values()),
                    max_steps=400_000)
    assert not violations
    assert all(log == [b"secret-bid: 900"] for log in logs.values())


def test_delivery_order_respects_abc_order():
    """Even when decryption of the first ciphertext lags, the second
    plaintext must not be passed on before the first."""
    dep, logs = _service(6)
    _submit(dep, _encrypt(dep.keys.public, b"first", b"L", seed=7))
    _submit(dep, _encrypt(dep.keys.public, b"second", b"L", seed=8))
    dep.network.run(until=lambda: all(len(log) >= 2 for log in logs.values()),
                    max_steps=600_000)
    for party, log in logs.items():
        stage = dep.replicas[party].stage
        opened = dict(stage.opened.values())
        assert log == logs[0] and [opened[p] for p in stage.abc.delivered] == log


def test_tolerates_silent_server():
    dep, logs = _service(9, parties=3)
    _submit(dep, _encrypt(dep.keys.public, b"still works", b"L", seed=10), range(3))
    dep.network.run(until=lambda: all(len(log) >= 1 for log in logs.values()),
                    max_steps=400_000)
    assert all(log == [b"still works"] for log in logs.values())


def test_junk_decryption_shares_ignored():
    dep, logs = _service(11)
    dep.network.send(2, 0, (SESSION, ScDecryptionShare(b"nonsense-digest", "not-a-share")))
    _submit(dep, _encrypt(dep.keys.public, b"payload", b"L", seed=12))
    dep.network.run(until=lambda: all(len(log) >= 1 for log in logs.values()),
                    max_steps=400_000)
    assert all(log == [b"payload"] for log in logs.values())


def test_flood_of_shares_for_unknown_digests_is_bounded_and_harmless():
    """One corrupted server sending well-formed shares under 10,000
    digests nobody a-delivered: an honest replica holds a bounded number
    for that sender, and the next honest request is still opened —
    whatever else that sender has waiting."""
    from repro.core.secure_causal import _EARLY_SHARE_LIMIT

    dep, logs = _service(13, parties=3)
    runtime, stage = dep.runtimes[0], dep.replicas[0].stage
    decoy = _encrypt(dep.keys.public, b"decoy", b"L", seed=14)
    share = dep.keys.private[3].decryption.decryption_share(decoy, random.Random(15))
    for k in range(10_000):
        runtime.on_message(3, (SESSION, ScDecryptionShare(b"digest-%d" % k, share)))
    assert {s: len(held) for s, held in stage.early.items()} == {3: _EARLY_SHARE_LIMIT}
    assert not stage.opening  # no screen for a ciphertext nobody ordered
    _submit(dep, _encrypt(dep.keys.public, b"after the flood", b"L", seed=16), range(3))
    dep.network.run(until=lambda: all(len(log) >= 1 for log in logs.values()),
                    max_steps=400_000)
    assert all(log == [b"after the flood"] for log in logs.values())
    assert not stage.opening and len(stage.early[3]) == _EARLY_SHARE_LIMIT


def test_share_that_overtakes_its_ciphertext_is_used():
    """Asynchrony may deliver a peer's decryption share before the
    ciphertext a-delivers here; it waits and counts once it does.  The
    network never runs: party 0 is driven by hand."""
    dep, logs = _service(17)
    runtime, stage = dep.runtimes[0], dep.replicas[0].stage
    ctx = ctx_for(runtime, SESSION)
    ct = _encrypt(dep.keys.public, b"early bird", b"L", seed=18)
    payload = ("ct", ct)
    digest = payload_digest(payload)

    def share_from(party, seed):
        share = dep.keys.private[party].decryption.decryption_share(ct, random.Random(seed))
        runtime.on_message(party, (SESSION, ScDecryptionShare(digest, share)))
        return share

    early = share_from(2, 19)
    assert logs[0] == [] and stage.early == {2: {digest: early}}
    stage.deliver(ctx, payload, 1)
    assert stage.early == {2: {}} and logs[0] == []  # one share is not enough
    share_from(0, 20)
    assert logs[0] == []  # qualified, not yet robust (2t + 1 = 3)
    share_from(1, 21)
    assert logs[0] == [b"early bird"]  # the early share is one of the three


def test_a_ciphertext_opened_in_an_agreed_log_drops_its_early_shares():
    """Shares waiting for a ciphertext that this replica then replays,
    opened, from an agreed log go: nothing will a-deliver it here, and
    they would hold the sender's bounded ``early`` for good."""
    dep, _logs = _service(19)
    runtime, replica = dep.runtimes[0], dep.replicas[0]
    ct = _encrypt(dep.keys.public, b"opened elsewhere", b"L", seed=20)
    payload = ("ct", ct)
    digest = payload_digest(payload)
    share = dep.keys.private[2].decryption.decryption_share(ct, random.Random(21))
    runtime.on_message(2, (SESSION, ScDecryptionShare(digest, share)))
    assert replica.stage.early == {2: {digest: share}}
    replica.preload_log(ctx_for(runtime, SESSION), ((payload, 1, b"opened elsewhere"),))
    assert replica.stage.early == {2: {}}
    assert replica.stage.opened[digest] == (payload, b"opened elsewhere")
