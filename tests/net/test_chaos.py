"""The chaos engine: seeded fault plans, scenarios, and Byzantine parties.

Everything here is deterministic and in-process: the full subprocess
orchestration path is exercised by the CI chaos-smoke job
(``python -m repro chaos run``); these tests pin down the properties
the engine's reproducibility guarantee rests on.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
import time
from dataclasses import replace

import pytest

from repro.core.atomic_broadcast import AbcProposal, batch_digest, proposal_statement
from repro.core.runtime import ProtocolRuntime
from repro.crypto import deal_system, keystore, small_group
from repro.crypto.dealer import deal_channel_keys
from repro.net.adversary import MutatingNode, SilentNode, SpamNode
from repro.net.attacks import byzantine_node
from repro.net.chaos import (
    FaultSpec,
    PartitionSpec,
    Scenario,
    ScenarioError,
    SeededFaultPlan,
    builtin_scenarios,
    corrupt_checkpoint,
    load_fault_plan,
    plan_timeline,
    resolve_scenario,
    save_fault_plan,
)
from repro.net.runtime import (
    HostState,
    _checkpoint_key,
    open_checkpoint,
    seal_checkpoint,
    state_path,
)
from repro.net.scheduler import FifoScheduler
from repro.net.simulator import Network
from repro.smr.replica import Replica, service_session
from repro.smr.state_machine import KeyValueStore

LINKS = [(0, 1), (1, 0), (0, 2), (3, 0)]

MIXED = FaultSpec(
    reset_rate=0.05,
    corrupt_rate=0.05,
    duplicate_rate=0.1,
    delay_rate=0.2,
    hold_rate=0.3,
)


def _frame_trace(plan: SeededFaultPlan, sender: int, recipient: int, count=50):
    return [
        (fault.action, fault.delay)
        for fault in (plan.frame_fault(sender, recipient) for _ in range(count))
    ]


def _hold_trace(plan: SeededFaultPlan, sender: int, recipient: int, count=50):
    return [plan.send_hold(sender, recipient) for _ in range(count)]


# -- seed reproducibility -----------------------------------------------------------


def test_same_seed_same_fault_streams():
    """Two plans built from the same (spec, seed) — e.g. in different
    replica processes — draw identical per-link decision streams."""
    a = SeededFaultPlan(MIXED, seed=1234)
    b = SeededFaultPlan(MIXED, seed=1234)
    for sender, recipient in LINKS:
        assert _frame_trace(a, sender, recipient) == _frame_trace(b, sender, recipient)
        assert _hold_trace(a, sender, recipient) == _hold_trace(b, sender, recipient)


def test_different_seed_different_fault_streams():
    a = SeededFaultPlan(MIXED, seed=1234)
    b = SeededFaultPlan(MIXED, seed=4321)
    assert _frame_trace(a, 0, 1, count=200) != _frame_trace(b, 0, 1, count=200)


def test_links_draw_from_independent_streams():
    """The (0, 1) link's stream is not the (1, 0) link's stream, and
    interleaving draws on one link does not perturb another."""
    plan = SeededFaultPlan(MIXED, seed=7)
    solo = SeededFaultPlan(MIXED, seed=7)
    interleaved = []
    for _ in range(50):
        interleaved.append(
            (plan.frame_fault(0, 1).action, plan.frame_fault(1, 0).action)
        )
    forward = [action for action, _ in interleaved]
    backward = [action for _, action in interleaved]
    assert forward == [f.action for f in (solo.frame_fault(0, 1) for _ in range(50))]
    assert forward != backward


def test_fault_rates_cascade_and_bound_delays():
    always = {"reset_rate": 0.0, "corrupt_rate": 0.0, "duplicate_rate": 0.0}
    for rate, action in (
        ("reset_rate", "reset"),
        ("corrupt_rate", "corrupt"),
        ("duplicate_rate", "duplicate"),
    ):
        plan = SeededFaultPlan(FaultSpec(**{**always, rate: 1.0}), seed=1)
        assert all(f.action == action for f in (plan.frame_fault(0, 1) for _ in range(20)))
    delayed = SeededFaultPlan(FaultSpec(delay_rate=1.0, max_delay=0.05), seed=1)
    for _ in range(20):
        fault = delayed.frame_fault(0, 1)
        assert fault.action == "pass"
        assert 0.0 <= fault.delay <= 0.05
    held = SeededFaultPlan(FaultSpec(hold_rate=1.0, max_hold=0.2), seed=1)
    assert all(0.0 < held.send_hold(0, 1) <= 0.2 for _ in range(20))


def test_zero_rates_touch_no_rng():
    """A quiet plan must not consume randomness: adding a fault-free
    link must never shift another link's stream."""
    plan = SeededFaultPlan(FaultSpec(), seed=3)
    assert plan.frame_fault(0, 1).action == "pass"
    assert plan.send_hold(0, 1) == 0.0
    assert plan._frame_rngs == {} and plan._hold_rngs == {}


# -- partitions ---------------------------------------------------------------------


def test_partition_window_cuts_both_directions():
    spec = FaultSpec(partitions=(PartitionSpec(start=2.0, stop=4.0, group=(3,)),))
    inside = SeededFaultPlan(spec, seed=0, epoch=time.time() - 3.0)
    assert not inside.link_up(0, 3)
    assert not inside.link_up(3, 0)
    assert inside.link_up(0, 1)  # both outside the cut group
    before = SeededFaultPlan(spec, seed=0, epoch=time.time() - 1.0)
    healed = SeededFaultPlan(spec, seed=0, epoch=time.time() - 10.0)
    assert before.link_up(0, 3) and healed.link_up(0, 3)


def test_start_anchors_epoch_once():
    plan = SeededFaultPlan(FaultSpec(), seed=0)
    assert plan.epoch is None
    plan.start()
    first = plan.epoch
    assert first is not None
    plan.start()
    assert plan.epoch == first
    pinned = SeededFaultPlan(FaultSpec(), seed=0, epoch=123.0)
    pinned.start()
    assert pinned.epoch == 123.0


def test_save_and_load_fault_plan_round_trip(tmp_path):
    spec = MIXED
    epoch = save_fault_plan(tmp_path, spec, seed=77)
    plan = load_fault_plan(tmp_path)
    assert plan is not None
    assert plan.seed == 77
    assert plan.epoch == epoch
    assert plan.spec == spec
    # The loaded plan replays the exact stream of a fresh in-memory one.
    assert _frame_trace(plan, 0, 1) == _frame_trace(SeededFaultPlan(spec, 77), 0, 1)


def test_load_fault_plan_absent_means_no_chaos(tmp_path):
    assert load_fault_plan(tmp_path) is None


# -- scenarios and timelines --------------------------------------------------------


def test_builtin_scenarios_round_trip_through_json():
    for name, scenario in builtin_scenarios().items():
        assert scenario.name == name
        encoded = json.dumps(scenario.to_json())
        assert Scenario.from_json(json.loads(encoded)) == scenario


def test_plan_timeline_is_deterministic_and_json_stable():
    scenario = builtin_scenarios()["torture"]
    timeline = plan_timeline(scenario)
    assert timeline == plan_timeline(scenario)
    # Entries are plain JSON types, so replay's equality check survives
    # a serialization round-trip.
    assert json.loads(json.dumps(timeline)) == timeline
    assert timeline == sorted(timeline, key=lambda e: e["at"])


def test_plan_timeline_covers_every_fault_and_op():
    scenario = builtin_scenarios()["kill-recover"]
    timeline = plan_timeline(scenario)
    kinds = [entry["kind"] for entry in timeline]
    assert kinds.count("op") == scenario.ops
    assert kinds.count("kill") == 1
    assert kinds.count("corrupt-checkpoint") == 1
    assert kinds.count("restart") == 1
    ops = [entry for entry in timeline if entry["kind"] == "op"]
    assert all(entry["at"] >= scenario.workload_start for entry in ops)


def test_dealerless_plan_adds_before_it_removes():
    scenario = builtin_scenarios()["dealerless"]
    assert scenario.dealerless and not scenario.byzantine
    changes = [
        (entry["at"], entry["action"])
        for entry in plan_timeline(scenario) if entry["kind"] == "reconfig"
    ]
    assert [action for _, action in changes] == ["add", "remove"]
    assert changes == sorted(changes)


@pytest.mark.parametrize(
    "fields, refusal",
    [
        ({"reconfigs": [[3.0, "grow"]]}, "unknown reconfig action 'grow'"),
        (
            {"dealerless": True, "byzantine": [[3, "silent"]]},
            "dealerless boot cannot have byzantine parties",
        ),
        # What a journal of a build before (at, action) pairs recorded.
        ({"reconfigs": [3.0, 8.0]}, "scenario: reconfigs: "),
    ],
    ids=["unknown-action", "dealerless-byzantine", "float-reconfigs"],
)
def test_from_json_refuses_a_reconfiguration_it_cannot_run(fields, refusal):
    with pytest.raises(ScenarioError, match=refusal):
        Scenario.from_json({"name": "refused", **fields})


def test_plan_timeline_depends_on_seed():
    scenario = builtin_scenarios()["partition-heal"]
    from dataclasses import replace

    reseeded = replace(scenario, seed=scenario.seed + 1)
    a = [e["at"] for e in plan_timeline(scenario) if e["kind"] == "op"]
    b = [e["at"] for e in plan_timeline(reseeded) if e["kind"] == "op"]
    assert a != b


def test_resolve_scenario_builtin_file_and_seed_override(tmp_path):
    assert resolve_scenario("torture").name == "torture"
    assert resolve_scenario("torture", seed=9).seed == 9
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps(builtin_scenarios()["stall"].to_json()))
    assert resolve_scenario(str(custom)) == builtin_scenarios()["stall"]
    with pytest.raises(SystemExit):
        resolve_scenario("no-such-scenario")


def test_resolve_scenario_reads_journals_and_repro_bundles(tmp_path):
    """``chaos run --scenario`` runs a recorded run again: a journal or
    a sweep bundle names its scenario under the ``scenario`` key."""
    scenario = builtin_scenarios()["stall"]
    recorded = {"scenario": scenario.to_json(), "timeline": plan_timeline(scenario)}
    journal = tmp_path / "journal.json"
    journal.write_text(json.dumps({**recorded, "events": [], "ok": True}))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(
        {"cell": "n4t1/stall", "backend": "tcp", "expected": "pass",
         "violations": ["liveness.stuck"], **recorded}
    ))
    for path in (journal, bundle):
        assert resolve_scenario(str(path)) == scenario
        assert resolve_scenario(str(path), seed=9) == replace(scenario, seed=9)


# -- checkpoint corruption ----------------------------------------------------------


def _record(directory, party, entries=None):
    """``party``'s record at epoch 0 of a dealt system, with its log
    ``entries`` checkpointed (none: no checkpoint); returns its keys."""
    keys = deal_system(4, random.Random(5), t=1, group=small_group())
    mine = keys.private[party]
    sealed = entries and seal_checkpoint(party, mine.signing_key, entries, 1)
    HostState(0, None, keys.public, keys.public, mine, sealed).save(directory, party)
    return mine


def test_corrupt_checkpoint_forces_rejection(tmp_path):
    """The corrupted log is rejected; the keys beside it still load."""
    entries = ((("req", 7, 1, ("set", "a", 1)), 1),)
    mine = _record(tmp_path, 2, entries)
    path = state_path(tmp_path, 2)
    assert open_checkpoint(2, mine.signing_key, HostState.load(path).checkpoint) == (
        entries, 1,
    )
    assert corrupt_checkpoint(tmp_path, 2)
    stored = HostState.load(path)
    assert open_checkpoint(2, mine.signing_key, stored.checkpoint) is None
    assert keystore.party_to_dict(stored.keys) == keystore.party_to_dict(mine)


def test_corrupt_checkpoint_without_checkpoint_is_a_noop(tmp_path):
    assert not corrupt_checkpoint(tmp_path, 0)
    _record(tmp_path, 0)  # a record, but no checkpoint in it
    assert not corrupt_checkpoint(tmp_path, 0)


def test_checkpoint_is_bound_to_its_party(tmp_path):
    """Party 1 cannot load (or be fed) party 0's checkpoint: the MAC
    key is derived from the party id and its identity signing key."""
    private = deal_system(2, random.Random(6), t=0, group=small_group()).private
    sealed = seal_checkpoint(0, private[0].signing_key, (), round_number=0)
    assert open_checkpoint(0, private[0].signing_key, sealed) is not None
    assert open_checkpoint(1, private[1].signing_key, sealed) is None
    assert open_checkpoint(1, private[0].signing_key, sealed) is None


def test_a_checkpoint_of_the_previous_grammar_is_rejected():
    """What the release before binary integers wrote — decimal ``I``
    bodies, MAC keyed under ``repro-checkpoint-v1`` — fails
    authentication, and its body would not parse under a valid MAC
    either: recovery falls through to peer state transfer."""
    keys = deal_channel_keys([0, 1, 2, 3], random.Random(5))
    signing_key = deal_system(4, random.Random(5), t=1, group=small_group()).private[2].signing_key
    old_body = bytes.fromhex(
        "4c000000024c000000014c000000024c0000000453000000037265714900000001374900"
        "000001314c0000000353000000037365745300000001614900000001314900000001314900"
        "00000131"
    )  # ((("req", 7, 1, ("set", "a", 1)), 1),), 1
    material = [b"repro-checkpoint-v1", (2).to_bytes(8, "big")]
    for peer in sorted(keys[2]):
        material += [peer.to_bytes(8, "big"), keys[2][peer]]
    old_key = hashlib.sha256(b"".join(material)).digest()
    new_key = _checkpoint_key(2, signing_key)
    assert new_key != old_key
    for key in (old_key, new_key):
        mac = hmac.new(key, old_body, hashlib.sha256).hexdigest()
        sealed = {"body": old_body.hex(), "mac": mac}
        assert open_checkpoint(2, signing_key, sealed) is None


# -- byzantine parties --------------------------------------------------------------


def _system(seed=7):
    keys = deal_system(4, random.Random(seed), t=1, group=small_group())
    return keys.public, keys.private


def _honest(public, keys):
    """A host's honest builder for party 3, and what it built."""
    built = {"runtime": None, "replica": None}

    def honest(net):
        built["runtime"] = runtime = ProtocolRuntime(3, net, public, keys)
        built["replica"] = replica = Replica(KeyValueStore())
        runtime.spawn(service_session(), replica)
        return runtime

    return honest, built


def test_byzantine_node_kinds():
    public, private = _system()
    network = Network(FifoScheduler(), random.Random(0))
    honest, built = _honest(public, private[3])
    node = byzantine_node("silent", network, 3, private[3], honest)
    runtime, replica = built["runtime"], built["replica"]
    assert isinstance(node, SilentNode) and runtime is None and replica is None
    node = byzantine_node("spam", network, 3, private[3], honest)
    runtime, replica = built["runtime"], built["replica"]
    assert isinstance(node, SpamNode) and runtime is None and replica is None
    node = byzantine_node("equivocate", network, 3, private[3], honest)
    runtime, replica = built["runtime"], built["replica"]
    assert isinstance(node, MutatingNode)
    assert runtime is not None and replica is not None
    with pytest.raises(ValueError):
        byzantine_node("helpful", network, 3, private[3], honest)


def test_equivocator_resigns_empty_batches_for_odd_peers():
    public, private = _system()
    network = Network(FifoScheduler(), random.Random(0))
    honest, _ = _honest(public, private[3])
    node = byzantine_node("equivocate", network, 3, private[3], honest)
    session = service_session()
    honest = (session, AbcProposal(2, (("payload", 1),), None))

    mutated = node.mutate(1, honest)
    assert mutated is not honest
    _, proposal = mutated
    assert proposal.round == 2 and proposal.batch == ()
    # The forgery is *validly signed* — allowed adversary behavior the
    # agreement layer must neutralize, not a frame the MAC layer drops.
    statement = proposal_statement(session, 2, batch_digest(()))
    assert public.verify_keys[3].verify(statement, proposal.signature)

    assert node.mutate(2, honest) is honest  # even peers see the truth
    other = (session, ("not", "a proposal"))
    assert node.mutate(1, other) is other
