"""Secure causal atomic broadcast: order, confidentiality, causality."""

import random

import pytest

from helpers import ctx_for, make_network

from repro.core.secure_causal import (
    ScDecryptionShare,
    SecureCausalBroadcast,
    sc_abc_session,
)
from repro.net.adversary import SilentNode
from repro.net.scheduler import RandomScheduler, ReorderScheduler


def _spawn(runtimes, session):
    logs = {}
    for party, runtime in runtimes.items():
        logs[party] = []
        runtime.spawn(
            session,
            SecureCausalBroadcast(
                on_deliver=lambda m, r, p=party: logs[p].append(m)
            ),
        )
    return logs


def _encrypt(public, message, label, seed):
    return public.encryption.encrypt(message, label, random.Random(seed))


def _submit(runtimes, session, party, ciphertext):
    inst = runtimes[party].instances[session]
    inst.submit(ctx_for(runtimes[party], session), ciphertext)


@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_same_plaintext_order_everywhere(keys_4_1, scheduler):
    net, rts = make_network(keys_4_1, scheduler(), seed=1)
    session = sc_abc_session(("order", scheduler.__name__))
    logs = _spawn(rts, session)
    net.start()
    for k in range(3):
        ct = _encrypt(keys_4_1.public, f"request-{k}".encode(), b"c", seed=k)
        for p in rts:
            _submit(rts, session, p, ct)
    net.run(until=lambda: all(len(logs[p]) >= 3 for p in rts), max_steps=600_000)
    assert all(logs[p] == logs[0] for p in rts)
    assert sorted(logs[0]) == [b"request-0", b"request-1", b"request-2"]


def test_invalid_ciphertext_refused_at_submission(keys_4_1):
    from dataclasses import replace

    net, rts = make_network(keys_4_1, seed=2)
    session = sc_abc_session("invalid")
    logs = _spawn(rts, session)
    net.start()
    ct = _encrypt(keys_4_1.public, b"m", b"L", seed=3)
    broken = replace(ct, payload=bytes(len(ct.payload)))
    for p in rts:
        _submit(rts, session, p, broken)
    net.run(max_steps=200_000)
    assert all(logs[p] == [] for p in rts)


def test_plaintext_hidden_until_delivery(keys_4_1):
    """Before a-delivery completes, no subset of fewer-than-qualified
    decryption shares exists anywhere: we check that no honest server
    broadcast a share before the ciphertext was a-delivered locally."""
    net, rts = make_network(keys_4_1, seed=4)
    session = sc_abc_session("conf")
    logs = _spawn(rts, session)
    net.start()
    ct = _encrypt(keys_4_1.public, b"secret-bid: 900", b"auction", seed=5)
    for p in rts:
        _submit(rts, session, p, ct)

    violations = []

    original_step = net.step

    def spying_step():
        # Inspect in-flight decryption shares: by protocol design they
        # are only ever sent by a party that already a-delivered, so
        # observing one before ANY delivery would violate causality.
        for env in net.pending:
            payload = env.payload
            if isinstance(payload, tuple) and len(payload) == 2:
                if isinstance(payload[1], ScDecryptionShare):
                    sender_inst = rts[env.sender].instances.get(session)
                    if sender_inst is not None and not sender_inst.abc.delivered:
                        violations.append(env)
        return original_step()

    net.step = spying_step
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    assert not violations
    assert all(logs[p] == [b"secret-bid: 900"] for p in rts)


def test_delivery_order_respects_abc_order(keys_4_1):
    """Even when decryption of the first ciphertext lags, the second
    plaintext must not be s-delivered before the first."""
    net, rts = make_network(keys_4_1, seed=6)
    session = sc_abc_session("strict-order")
    logs = _spawn(rts, session)
    net.start()
    ct1 = _encrypt(keys_4_1.public, b"first", b"L", seed=7)
    ct2 = _encrypt(keys_4_1.public, b"second", b"L", seed=8)
    for p in rts:
        _submit(rts, session, p, ct1)
        _submit(rts, session, p, ct2)
    net.run(until=lambda: all(len(logs[p]) >= 2 for p in rts), max_steps=600_000)
    for p in rts:
        first_idx = logs[p].index(b"first")
        second_idx = logs[p].index(b"second")
        # Whatever the agreed order is, it is the same everywhere...
        assert logs[p] == logs[0]
        assert {first_idx, second_idx} == {0, 1}


def test_tolerates_silent_server(keys_4_1):
    net, rts = make_network(keys_4_1, seed=9, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = sc_abc_session("silent")
    logs = _spawn(rts, session)
    net.start()
    ct = _encrypt(keys_4_1.public, b"still works", b"L", seed=10)
    for p in rts:
        _submit(rts, session, p, ct)
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    assert all(logs[p] == [b"still works"] for p in rts)


def test_junk_decryption_shares_ignored(keys_4_1):
    net, rts = make_network(keys_4_1, seed=11)
    session = sc_abc_session("junk")
    logs = _spawn(rts, session)
    net.start()
    net.send(2, 0, (session, ScDecryptionShare(b"nonsense-digest", "not-a-share")))
    ct = _encrypt(keys_4_1.public, b"payload", b"L", seed=12)
    for p in rts:
        _submit(rts, session, p, ct)
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    assert all(logs[p] == [b"payload"] for p in rts)


def test_flood_of_shares_for_unknown_digests_is_bounded_and_harmless(keys_4_1):
    """One corrupted server sending well-formed shares under 10,000
    digests nobody a-delivered: an honest replica holds a bounded number
    for that sender, and the next honest request is still s-delivered —
    whatever else that sender has waiting."""
    from repro.core.secure_causal import _EARLY_SHARE_LIMIT

    net, rts = make_network(keys_4_1, seed=13, parties=[0, 1, 2])
    net.attach(3, SilentNode())
    session = sc_abc_session("flood")
    logs = _spawn(rts, session)
    net.start()
    decoy = _encrypt(keys_4_1.public, b"decoy", b"L", seed=14)
    share = keys_4_1.private[3].decryption.decryption_share(decoy, random.Random(15))
    for k in range(10_000):
        rts[0].on_message(3, (session, ScDecryptionShare(b"digest-%d" % k, share)))
    inst = rts[0].instances[session]
    assert {s: len(held) for s, held in inst.early.items()} == {3: _EARLY_SHARE_LIMIT}
    assert not inst.opening  # no screen for a ciphertext nobody ordered
    ct = _encrypt(keys_4_1.public, b"after the flood", b"L", seed=16)
    for p in rts:
        _submit(rts, session, p, ct)
    net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=400_000)
    assert all(logs[p] == [b"after the flood"] for p in rts)
    assert not inst.opening and len(inst.early[3]) == _EARLY_SHARE_LIMIT


def test_share_that_overtakes_its_ciphertext_is_used(keys_4_1):
    """Asynchrony may deliver a peer's decryption share before the
    ciphertext a-delivers here; it waits and counts once it does."""
    from repro.core.secure_causal import _digest

    net, rts = make_network(keys_4_1, seed=17, parties=[0])
    session = sc_abc_session("early")
    logs = _spawn(rts, session)
    inst, ctx = rts[0].instances[session], ctx_for(rts[0], session)
    ct = _encrypt(keys_4_1.public, b"early bird", b"L", seed=18)
    share = keys_4_1.private[2].decryption.decryption_share(ct, random.Random(19))
    rts[0].on_message(2, (session, ScDecryptionShare(_digest(ct), share)))
    assert logs[0] == [] and inst.early == {2: {_digest(ct): share}}
    inst._on_a_deliver(ctx, ("ct", ct), 1)
    assert inst.early == {2: {}} and logs[0] == []  # one share is not enough
    own = keys_4_1.private[0].decryption.decryption_share(ct, random.Random(20))
    rts[0].on_message(0, (session, ScDecryptionShare(_digest(ct), own)))
    assert logs[0] == [b"early bird"]
