"""Epoch-based reconfiguration: the Reconfigure operation, the closed
epoch's tombstone, and the client's membership refresh."""

import dataclasses
import random

import pytest

from repro.adversary.quorums import GeneralQuorumSystem, ThresholdQuorumSystem
from repro.adversary.structures import threshold_structure
from repro.core.runtime import ProtocolRuntime
from repro.crypto import keystore
from repro.crypto.dealer import deal_system
from repro.crypto.groups import small_group
from repro.crypto.schnorr import keygen
from repro.net.scheduler import FifoScheduler
from repro.net.simulator import Network
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


@pytest.mark.parametrize("field", ["party", "port", "epoch", "signer"])
def test_a_field_spelled_true_makes_a_plain_application_op(keys_4_1, field):
    """An ordered operation is an application value no admission check
    reaches: its fields are exactly ``int`` or it is no ``Reconfigure``
    (``True == 1``, yet it encodes apart).  The state machine then sees
    it as any unknown op."""
    joiner = dict(party=4, verify_key=_joiner_key(keys_4_1), host="h", port=1)
    op = _signed(keys_4_1, "add", 1, **joiner)
    index = {"party": 2, "port": 5, "epoch": 6, "signer": 7}[field]
    assert reconfig.parse_reconfigure(op) is not None
    spelled = op[:index] + (True,) + op[index + 1:]
    assert spelled == op[:index] + (1,) + op[index + 1:]
    assert reconfig.parse_reconfigure(spelled) is None
    assert KeyValueStore().apply(Request(1000, 1, spelled))[0] == "error"


def test_unknown_action_rejected(keys_4_1):
    with pytest.raises(ValueError):
        _signed(keys_4_1, "merge", 1)


@pytest.fixture(scope="module")
def keys_5():
    return deal_system(5, random.Random(12), t=1, group=small_group())


def _membership(keys):
    return reconfig.Membership.of(0, keys.public)


def _add(keys, epoch, **overrides):
    change = dict(party=keys.public.n, verify_key=_joiner_key(keys),
                  host="127.0.0.1", port=9000)
    return _signed(keys, "add", epoch, **{**change, **overrides})


def _remove(keys, epoch, **overrides):
    return _signed(keys, "remove", epoch, **{"party": keys.public.n - 1, **overrides})


def _refresh(keys, epoch, **overrides):
    return _signed(keys, "refresh", epoch, **overrides)


_BUILD = {"add": _add, "remove": _remove, "refresh": _refresh}
_WRONG_PARTY = {"add": 7, "remove": 2, "refresh": 0}


def _forged(keys, action, epoch):
    """The operation signed by a key outside the membership, claiming
    to be member 0's."""
    outsider = keygen(random.Random(3), keys.public.group)
    honest = _BUILD[action](keys, epoch)
    return reconfig.reconfigure_operation(
        action, epoch, 0, outsider, random.Random(4),
        party=honest[2], verify_key=honest[3], host=honest[4], port=honest[5],
    )


def _case(keys_4, keys_5, action, case):
    """``(operation, membership, accepted)`` of one table row.  The base
    membership is n = 5, t = 1 at epoch 0 (room to remove one); ``below
    3t + 1`` starts from n = 4 = 3t + 1.  ``tampered`` alters the
    signature of a valid operation (test_validate_rejects_tampered_fields
    alters a signed field)."""
    build = _BUILD[action]
    if case == "valid":
        return build(keys_5, 1), _membership(keys_5), True
    if case == "forged":
        return _forged(keys_5, action, 1), _membership(keys_5), False
    if case == "tampered":
        op = build(keys_5, 1)
        return op[:-1] + (op[-1] + 1,), _membership(keys_5), False
    if case == "wrong-epoch":
        return build(keys_5, 2), _membership(keys_5), False
    if case == "wrong-party":
        return build(keys_5, 1, party=_WRONG_PARTY[action]), _membership(keys_5), False
    assert case == "below-3t+1"
    return build(keys_4, 1), _membership(keys_4), action != "remove"


@pytest.mark.parametrize("case", [
    "valid", "forged", "tampered", "wrong-epoch", "wrong-party", "below-3t+1",
])
@pytest.mark.parametrize("action", ["add", "remove", "refresh"])
def test_next_membership(keys_4_1, keys_5, action, case):
    operation, membership, accepted = _case(keys_4_1, keys_5, action, case)
    step = reconfig.next_membership(operation, membership)
    if not accepted:
        assert step is None
        return
    request, successor = step
    assert request.action == action and request.epoch == 1
    keys = membership.verify_keys
    assert successor == reconfig.Membership(
        1, membership.group,
        ThresholdQuorumSystem(n=successor.n, t=1),
        {"add": keys + (request.verify_key,), "remove": keys[:-1],
         "refresh": keys}[action],
    )


def test_validate_accepts_refresh(keys_4_1):
    """A refresh keeps the members and their keys; only the epoch moves."""
    op = _signed(keys_4_1, "refresh", 1)
    request, successor = reconfig.next_membership(op, _membership(keys_4_1))
    assert request.party == -1
    assert successor.n == 4 and successor.epoch == 1
    assert successor.verify_keys == _membership(keys_4_1).verify_keys


def test_validate_rejects_wrong_epoch(keys_4_1):
    op = _signed(keys_4_1, "refresh", 2)  # skips epoch 1
    assert reconfig.next_membership(op, _membership(keys_4_1)) is None
    # The same op becomes valid once epoch 1 has passed.
    _, at_1 = reconfig.next_membership(
        _signed(keys_4_1, "refresh", 1), _membership(keys_4_1)
    )
    assert reconfig.next_membership(op, at_1) is not None


def test_validate_rejects_non_member_signer(keys_5):
    """Signers are the members of the membership the history stands at:
    an id outside it, or a member an earlier epoch removed, is refused."""
    beyond = reconfig.reconfigure_operation(
        "refresh", 1, 9, keys_5.private[0].signing_key, random.Random(4)
    )
    assert reconfig.next_membership(beyond, _membership(keys_5)) is None
    _, without_4 = reconfig.next_membership(_remove(keys_5, 1), _membership(keys_5))
    removed = _signed(keys_5, "refresh", 2, signer=4)
    assert reconfig.next_membership(removed, without_4) is None
    assert reconfig.next_membership(_signed(keys_5, "refresh", 2), without_4)


def test_validate_rejects_tampered_fields(keys_4_1):
    """A signed add whose address was changed afterwards is refused,
    though the changed one would be well-formed."""
    op = _add(keys_4_1, 1)
    moved = op[:5] + (op[5] + 1,) + op[6:]
    assert reconfig.next_membership(moved, _membership(keys_4_1)) is None


def test_validate_add(keys_4_1):
    good = _add(keys_4_1, 1)
    _, successor = reconfig.next_membership(good, _membership(keys_4_1))
    assert successor.n == 5 and successor.verify_keys[4] == _joiner_key(keys_4_1)
    # A joiner needs a dialable address, and a key in the group.
    unreachable = _add(keys_4_1, 1, host="", port=0)
    assert reconfig.next_membership(unreachable, _membership(keys_4_1)) is None
    foreign = _add(keys_4_1, 1, verify_key=keys_4_1.public.group.p + 1)
    assert reconfig.next_membership(foreign, _membership(keys_4_1)) is None


def test_validate_remove_respects_quorum_bound(keys_5):
    # n=5, t=1 has slack once: 5 -> 4, then 4 = 3t + 1 holds the line.
    _, at_1 = reconfig.next_membership(_remove(keys_5, 1), _membership(keys_5))
    assert at_1.n == 4 and at_1.quorum == ThresholdQuorumSystem(n=4, t=1)
    again = _signed(keys_5, "remove", 2, party=3)
    assert reconfig.next_membership(again, at_1) is None


def test_a_non_threshold_membership_takes_no_reconfiguration(keys_4_1):
    """Resharing needs a threshold quorum system; on any other the
    operation is refused, refresh included."""
    general = dataclasses.replace(
        _membership(keys_4_1),
        quorum=GeneralQuorumSystem(structure=threshold_structure(4, 1)),
    )
    assert reconfig.next_membership(_signed(keys_4_1, "refresh", 1), general) is None


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


def test_a_closed_epoch_buffers_nothing(keys_4_1):
    """Nothing under a closed epoch's session is spawned again (the
    broadcast moved to the new session), so traffic for its unspawned
    sub-sessions is dropped, not held one buffer per session id."""
    network = Network(FifoScheduler(), random.Random(0))
    runtime = ProtocolRuntime(0, network, keys_4_1.public, keys_4_1.private[0])
    old = reconfig.epoch_service_session(0)
    info = reconfig.signed_membership_info(
        0, 1, keystore.public_to_dict(keys_4_1.public),
        keys_4_1.private[0].signing_key, random.Random(7),
    )
    runtime.spawn(old, reconfig.EpochTombstone(info))
    for r in range(100):
        runtime.on_message(1, (("mvba", (old, r)), ("vote", r)))
    assert runtime._buffered == {}


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
