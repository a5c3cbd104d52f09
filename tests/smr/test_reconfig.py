"""Epoch-based reconfiguration: the Reconfigure operation, the closed
epoch's tombstone, and the client's membership refresh."""

import random

import pytest

from repro.crypto import keystore
from repro.crypto.dealer import deal_system
from repro.crypto.groups import small_group
from repro.crypto.schnorr import keygen
from repro.smr import KeyValueStore, build_service, reconfig
from repro.smr.replica import SubmitRequest, service_session
from repro.smr.state_machine import Request


@pytest.fixture(scope="module")
def keys_4_1():
    return deal_system(4, random.Random(11), t=1, group=small_group())


def _signed(keys, action, epoch, signer=0, **kwargs):
    return reconfig.reconfigure_operation(
        action, epoch, signer, keys.private[signer].signing_key,
        random.Random(5), **kwargs,
    )


def _joiner_key(keys):
    return keygen(random.Random(77), keys.public.group).verify_key.h


# -- operation format ---------------------------------------------------------


def test_reconfigure_roundtrip(keys_4_1):
    op = _signed(keys_4_1, "refresh", 1)
    parsed = reconfig.parse_reconfigure(op)
    assert parsed is not None
    request, _ = parsed
    assert request.action == "refresh"
    assert request.epoch == 1
    assert request.signer == 0


def test_parse_ignores_application_ops(keys_4_1):
    assert reconfig.parse_reconfigure(("set", "k", 1)) is None
    assert reconfig.parse_reconfigure("reconfig") is None
    assert reconfig.parse_reconfigure(None) is None
    # Right kind, wrong arity.
    assert reconfig.parse_reconfigure((reconfig.RECONFIG_KIND, "add")) is None


def test_unknown_action_rejected(keys_4_1):
    with pytest.raises(ValueError):
        _signed(keys_4_1, "merge", 1)


def test_validate_accepts_refresh(keys_4_1):
    op = _signed(keys_4_1, "refresh", 1)
    request = reconfig.validate_reconfigure(op, keys_4_1.public, 0)
    assert request is not None
    assert reconfig.new_member_count(keys_4_1.public, request) == 4


def test_validate_rejects_wrong_epoch(keys_4_1):
    op = _signed(keys_4_1, "refresh", 2)  # skips epoch 1
    assert reconfig.validate_reconfigure(op, keys_4_1.public, 0) is None
    # The same op becomes valid once epoch 1 has passed.
    assert reconfig.validate_reconfigure(op, keys_4_1.public, 1) is not None


def test_validate_rejects_non_member_signer(keys_4_1):
    outsider = keygen(random.Random(3), keys_4_1.public.group)
    op = reconfig.reconfigure_operation(
        "refresh", 1, 0, outsider, random.Random(4)
    )
    assert reconfig.validate_reconfigure(op, keys_4_1.public, 0) is None


def test_validate_rejects_tampered_fields(keys_4_1):
    op = _signed(keys_4_1, "refresh", 1)
    tampered = op[:1] + ("remove",) + op[2:]
    assert reconfig.validate_reconfigure(tampered, keys_4_1.public, 0) is None


def test_validate_add(keys_4_1):
    joiner = _joiner_key(keys_4_1)
    good = _signed(keys_4_1, "add", 1, party=4, verify_key=joiner,
                   host="127.0.0.1", port=9000)
    assert reconfig.validate_reconfigure(good, keys_4_1.public, 0) is not None
    # Membership must stay the contiguous range 0..n.
    gap = _signed(keys_4_1, "add", 1, party=7, verify_key=joiner,
                  host="127.0.0.1", port=9000)
    assert reconfig.validate_reconfigure(gap, keys_4_1.public, 0) is None
    # A joiner needs a dialable address.
    unreachable = _signed(keys_4_1, "add", 1, party=4, verify_key=joiner)
    assert reconfig.validate_reconfigure(unreachable, keys_4_1.public, 0) is None


def test_validate_remove_respects_quorum_bound(keys_4_1):
    # n=4, t=1: removing anyone would leave n < 3t+1.
    op = _signed(keys_4_1, "remove", 1, party=3)
    assert reconfig.validate_reconfigure(op, keys_4_1.public, 0) is None
    # n=5, t=1 has slack; only the highest id may retire.
    keys_5 = deal_system(5, random.Random(12), t=1, group=small_group())
    ok = reconfig.reconfigure_operation(
        "remove", 1, 0, keys_5.private[0].signing_key, random.Random(5), party=4
    )
    assert reconfig.validate_reconfigure(ok, keys_5.public, 0) is not None
    middle = reconfig.reconfigure_operation(
        "remove", 1, 0, keys_5.private[0].signing_key, random.Random(5), party=2
    )
    assert reconfig.validate_reconfigure(middle, keys_5.public, 0) is None


# -- sessions and membership records ------------------------------------------


def test_epoch_zero_keeps_legacy_session():
    assert reconfig.epoch_service_session(0) == service_session()
    assert reconfig.epoch_service_session(1) != service_session()
    assert (reconfig.epoch_service_session(1)
            != reconfig.epoch_service_session(2))


def test_membership_info_verifies(keys_4_1):
    info = reconfig.signed_membership_info(
        2, 1, keystore.public_to_dict(keys_4_1.public),
        keys_4_1.private[2].signing_key, random.Random(6),
    )
    assert reconfig.verify_membership_info(info, keys_4_1.public)
    # A statement signed by a non-member (or the wrong member) fails.
    forged = reconfig.MembershipInfo(
        replica=3, epoch=info.epoch,
        public_json=info.public_json, signature=info.signature,
    )
    assert not reconfig.verify_membership_info(forged, keys_4_1.public)
    assert not reconfig.verify_membership_info("junk", keys_4_1.public)


# -- the tombstone ------------------------------------------------------------


class _StubCtx:
    party = 0

    def __init__(self):
        self.sent = []

    def send(self, recipient, message):
        self.sent.append((recipient, message))


def test_tombstone_redirects_submissions(keys_4_1):
    info = reconfig.signed_membership_info(
        0, 3, keystore.public_to_dict(keys_4_1.public),
        keys_4_1.private[0].signing_key, random.Random(7),
    )
    stone = reconfig.EpochTombstone(info)
    ctx = _StubCtx()
    request = Request(client=1000, nonce=1, operation=("set", "k", 1))
    stone.on_message(ctx, 1000, SubmitRequest(request.encode()))
    assert ctx.sent == [(1000, reconfig.EpochError(replica=0, epoch=3))]
    stone.on_message(ctx, 1000, reconfig.MembershipQuery(known_epoch=0))
    assert ctx.sent[-1] == (1000, info)
    # Byzantine junk is ignored, not answered.
    stone.on_message(ctx, 1000, ("garbage",))
    assert len(ctx.sent) == 2


# -- client epoch refresh (simulator, end to end) -----------------------------


def _switch_epoch(dep, epoch, seed=0):
    """Move every replica to the epoch's session, leaving a tombstone
    at the old one — the simulator's stand-in for a committed
    Reconfigure(refresh)."""
    old = reconfig.epoch_service_session(epoch - 1)
    new = reconfig.epoch_service_session(epoch)
    public_dict = keystore.public_to_dict(dep.keys.public)
    for party, runtime in dep.runtimes.items():
        info = reconfig.signed_membership_info(
            party, epoch, public_dict,
            dep.keys.private[party].signing_key, random.Random(seed + party),
        )
        replica = runtime.instances.pop(old)
        runtime.spawn(old, reconfig.EpochTombstone(info))
        runtime.spawn(new, replica)


def test_client_follows_epoch_change():
    """A client provisioned at epoch 0 hits the tombstones, fetches the
    signed membership, and resubmits under the SAME nonce at epoch 1."""
    dep = build_service(4, KeyValueStore, t=1, seed=21)
    client = dep.new_client()
    dep.network.start()
    n0 = client.submit(("set", "before", 1))
    dep.run_until_complete(client, [n0])

    _switch_epoch(dep, 1)
    nonce = client.submit(("set", "after", 2))
    results = dep.run_until_complete(client, [nonce])

    assert results[nonce].result == ("ok", 2)
    assert client.epoch == 1
    assert client.epoch_refreshes == 1
    assert client.resubmissions >= 1
    # Same nonce end to end: the epoch hop did not re-number the op.
    assert client.operation(nonce) == ("set", "after", 2)
    dep.network.run(max_steps=400_000)  # drain the laggards
    snapshots = {r.state_machine.snapshot() for r in dep.honest_replicas()}
    assert len(snapshots) == 1


def test_client_steps_through_two_epochs():
    dep = build_service(4, KeyValueStore, t=1, seed=22)
    client = dep.new_client()
    dep.network.start()
    _switch_epoch(dep, 1)
    _switch_epoch(dep, 2, seed=50)
    nonce = client.submit(("set", "k", 9))
    results = dep.run_until_complete(client, [nonce])
    assert results[nonce].result == ("ok", 1)
    assert client.epoch == 2
    assert client.epoch_refreshes >= 1


def test_stale_epoch_error_is_ignored():
    """An EpochError claiming an *older* epoch (a laggard or a liar)
    must not roll the client back or trigger queries."""
    dep = build_service(4, KeyValueStore, t=1, seed=23)
    client = dep.new_client()
    dep.network.start()
    client.epoch = 2
    client.session = reconfig.epoch_service_session(2)
    sent = []
    client.network = type("Net", (), {"send": lambda self, s, r, p: sent.append(p)})()
    client._on_epoch_error(0, reconfig.EpochError(replica=0, epoch=1))
    assert client.epoch == 2
    assert sent == []


def test_forged_membership_not_adopted():
    """Votes signed by keys outside the trusted set never reach the
    honest-containing threshold."""
    dep = build_service(4, KeyValueStore, t=1, seed=24)
    client = dep.new_client()
    dep.network.start()
    rogue_keys = deal_system(4, random.Random(99), t=1, group=small_group())
    public_dict = keystore.public_to_dict(rogue_keys.public)
    for party in range(4):
        info = reconfig.signed_membership_info(
            party, 5, public_dict,
            rogue_keys.private[party].signing_key, random.Random(party),
        )
        client._on_membership_info(party, info)
    assert client.epoch == 0
    assert client.epoch_refreshes == 0


def test_single_replica_cannot_move_client():
    """One (possibly departed/corrupt) replica's vote is below the
    honest-containing threshold."""
    dep = build_service(4, KeyValueStore, t=1, seed=25)
    client = dep.new_client()
    dep.network.start()
    info = reconfig.signed_membership_info(
        0, 1, keystore.public_to_dict(dep.keys.public),
        dep.keys.private[0].signing_key, random.Random(1),
    )
    client._on_membership_info(0, info)
    assert client.epoch == 0 and client.epoch_refreshes == 0
