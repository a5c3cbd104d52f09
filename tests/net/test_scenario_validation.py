"""Strict scenario-spec validation and plan_timeline edge cases.

A malformed spec that silently runs a *different* scenario than the one
written would poison every downstream artifact (journals, sweep cells,
repro bundles), so ``from_json`` must reject rather than coerce.
"""

import dataclasses
import json

import pytest

from repro.net.chaos import (
    FAULT_TEMPLATES,
    LATENCY_TEMPLATES,
    LOAD_TEMPLATES,
    FaultSpec,
    LifecycleEvent,
    PartitionSpec,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    fault_template,
    latency_template,
    load_template,
    parameterize_scenario,
    plan_timeline,
)
from repro.net.runtime import ClusterConfig
from repro.net.sweep import ShapeSpec, SweepSpec


def _valid() -> dict:
    return {"name": "t", "n": 4, "t": 1, "seed": 7}


# -- from_json rejections -----------------------------------------------------------


def test_unknown_scenario_key_rejected():
    spec = _valid()
    spec["opz"] = 6  # typo'd "ops"
    with pytest.raises(ScenarioError, match="unknown key.*opz"):
        Scenario.from_json(spec)


def test_unknown_fault_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        FaultSpec.from_json({"reset_rte": 0.5})


def test_unknown_partition_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        PartitionSpec.from_json({"start": 1, "stop": 2, "group": [0], "grp": [1]})


def test_missing_name_rejected():
    with pytest.raises(ScenarioError, match="missing name"):
        Scenario.from_json({"n": 4})


@pytest.mark.parametrize(
    "patch",
    [
        {"ops": -1},
        {"op_concurrency": 0},
        {"io_timeout": 0.0},
        {"reconfigs": [[-1.0, "add"]]},
        {"reconfigs": [[1.0, "explode"]]},
        {"dealerless": True, "byzantine": [[3, "silent"]]},
        {"checkpoint_every": 0},
        {"workload_start": -0.5},
        {"abc_max_batch": 0},
        {"abc_pipeline_depth": -2},
        {"t": 4},  # t must be < n
        {"t": -1},
        {"n": 0},
    ],
)
def test_out_of_range_scenario_fields_rejected(patch):
    spec = {**_valid(), **patch}
    with pytest.raises(ScenarioError):
        Scenario.from_json(spec)


def test_cluster_file_with_out_of_range_knob_rejected(tmp_path):
    """``cluster.json`` knobs reach ``AbcConfig`` unchecked by the
    loader; the config refuses a zero-depth pipeline, so ``run-replica``
    fails at startup instead of wedging."""
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({
        "addresses": {"0": ["127.0.0.1", 9000]},
        "abc_pipeline_depth": 0,
    }))
    with pytest.raises(ValueError, match="pipeline_depth"):
        ClusterConfig.load(path).abc_config()


def test_bad_byzantine_kind_rejected():
    spec = {**_valid(), "byzantine": [[3, "sleepy"]]}
    with pytest.raises(ScenarioError, match="unknown byzantine kind"):
        Scenario.from_json(spec)


def test_byzantine_party_out_of_range_rejected():
    spec = {**_valid(), "byzantine": [[7, "silent"]]}
    with pytest.raises(ScenarioError, match="outside"):
        Scenario.from_json(spec)


def test_party_corrupted_twice_rejected():
    spec = {**_valid(), "byzantine": [[3, "silent"], [3, "spam"]]}
    with pytest.raises(ScenarioError, match="twice"):
        Scenario.from_json(spec)


def test_bad_lifecycle_action_rejected():
    spec = {**_valid(), "events": [{"at": 2.0, "action": "explode", "party": 1}]}
    with pytest.raises(ScenarioError, match="unknown action"):
        Scenario.from_json(spec)


def test_negative_event_time_rejected():
    spec = {**_valid(), "events": [{"at": -1.0, "action": "kill", "party": 1}]}
    with pytest.raises(ScenarioError, match="negative time"):
        Scenario.from_json(spec)


def test_event_party_out_of_range_rejected():
    spec = {**_valid(), "events": [{"at": 2.0, "action": "kill", "party": 9}]}
    with pytest.raises(ScenarioError, match="outside"):
        Scenario.from_json(spec)


def test_partition_stop_before_start_rejected():
    spec = {
        **_valid(),
        "faults": {"partitions": [{"start": 4.0, "stop": 2.0, "group": [3]}]},
    }
    with pytest.raises(ScenarioError, match="stop"):
        Scenario.from_json(spec)


def test_negative_partition_start_rejected():
    spec = {
        **_valid(),
        "faults": {"partitions": [{"start": -1.0, "stop": 2.0, "group": [3]}]},
    }
    with pytest.raises(ScenarioError, match="negative start"):
        Scenario.from_json(spec)


def test_partition_party_out_of_range_rejected():
    spec = {
        **_valid(),
        "faults": {"partitions": [{"start": 1.0, "stop": 2.0, "group": [5]}]},
    }
    with pytest.raises(ScenarioError, match="outside"):
        Scenario.from_json(spec)


@pytest.mark.parametrize("rate_key", [
    "reset_rate", "corrupt_rate", "duplicate_rate", "delay_rate", "hold_rate",
])
@pytest.mark.parametrize("value", [-0.1, 1.5])
def test_fault_rates_must_be_probabilities(rate_key, value):
    with pytest.raises(ScenarioError, match="probability"):
        FaultSpec.from_json({rate_key: value})


def test_non_numeric_field_rejected_as_scenario_error():
    spec = {**_valid(), "ops": "lots"}
    with pytest.raises(ScenarioError):
        Scenario.from_json(spec)


def test_lifecycle_event_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        LifecycleEvent.from_json(
            {"at": 1.0, "action": "kill", "party": 0, "extra": 1}
        )


def test_roundtrip_of_every_builtin_survives_strict_parsing():
    for scenario in builtin_scenarios().values():
        again = Scenario.from_json(json.loads(json.dumps(scenario.to_json())))
        assert again == scenario


_CUT = PartitionSpec(start=1.0, stop=2.5, group=(0, 3))
_KILL = LifecycleEvent(at=2.0, action="kill", party=1)
_SHAPE = ShapeSpec(n=7, t=2, byzantine=((6, "silent"),), expect="violation")


@pytest.mark.parametrize(
    "full, minimal, defaults",
    [
        (_CUT, _CUT.to_json(), _CUT),
        (
            FaultSpec(
                reset_rate=0.1, corrupt_rate=0.2, duplicate_rate=0.3,
                delay_rate=0.4, max_delay=0.5, hold_rate=0.6, max_hold=0.7,
                partitions=(_CUT,),
            ),
            {},
            FaultSpec(),
        ),
        (_KILL, _KILL.to_json(), _KILL),
        (
            Scenario(
                name="full", n=7, t=2, seed=3, ops=9,
                faults=FaultSpec(hold_rate=0.5, partitions=(_CUT,)),
                events=(_KILL,), byzantine=((6, "spam"),), io_timeout=9.0,
                checkpoint_every=4, workload_start=1.5, op_concurrency=3,
                abc_max_batch=16, abc_pipeline_depth=2,
                reconfigs=((3.0, "add"), (8.5, "remove")),
            ),
            {"name": "bare"},
            Scenario(name="bare"),
        ),
        (_SHAPE, {}, ShapeSpec()),
        (
            SweepSpec(
                name="grid", shapes=(_SHAPE, ShapeSpec()),
                faults=("lossy", "churn"), latencies=("heavy",),
                loads=("pipelined",), seeds=(4, 5), tcp_cells=2,
            ),
            {"name": "bare", "shapes": [{}]},
            SweepSpec(name="bare", shapes=(ShapeSpec(),)),
        ),
    ],
    ids=lambda value: type(value).__name__,
)
def test_every_spec_round_trips_defaults_and_refuses_unknown_keys(
    full, minimal, defaults
):
    cls = type(full)
    # ``full`` sets every field off its default, so a field dropped by
    # to_json or from_json cannot hide behind the default — all but a
    # dealerless boot, which refuses the byzantine parties ``full`` has
    # (test_a_dealerless_boot_round_trips sets it).
    assert all(
        getattr(full, f.name) != f.default
        for f in dataclasses.fields(cls)
        if (cls, f.name) != (Scenario, "dealerless")
    )
    data = json.loads(json.dumps(full.to_json()))
    assert list(data) == [f.name for f in dataclasses.fields(cls)]
    assert cls.from_json(data) == full
    assert cls.from_json(minimal) == defaults
    with pytest.raises(ScenarioError, match=f"{cls.what}: unknown key.*zzz"):
        cls.from_json({**data, "zzz": 1})


def test_a_dealerless_boot_round_trips():
    scenario = Scenario(name="keygen", dealerless=True, reconfigs=((3.0, "add"),))
    data = json.loads(json.dumps(scenario.to_json()))
    assert data["dealerless"] is True
    assert Scenario.from_json(data) == scenario


# -- plan_timeline edge cases -------------------------------------------------------


def test_overlapping_partitions_both_appear_and_sort_stably():
    scenario = Scenario(
        name="overlap",
        seed=3,
        ops=2,
        faults=FaultSpec(
            partitions=(
                PartitionSpec(start=2.0, stop=5.0, group=(3,)),
                PartitionSpec(start=2.0, stop=4.0, group=(1,)),
                PartitionSpec(start=3.0, stop=6.0, group=(2,)),
            )
        ),
    )
    timeline = plan_timeline(scenario)
    cuts = [e for e in timeline if e["kind"] == "partition"]
    assert len(cuts) == 3
    assert [e["at"] for e in timeline] == sorted(e["at"] for e in timeline)
    # Two cuts at the same instant: recorded deterministically, both kept.
    assert [c["group"] for c in cuts[:2]] == [[3], [1]]
    assert plan_timeline(scenario) == timeline  # pure function


def test_events_before_cluster_up_are_scheduled_not_dropped():
    # An event at t=0 (before any replica can be listening) is the
    # spec author's problem; the planner must keep it, in order.
    scenario = Scenario(
        name="early",
        seed=4,
        ops=1,
        workload_start=0.0,
        events=(LifecycleEvent(at=0.0, action="suspend", party=1),),
    )
    timeline = plan_timeline(scenario)
    assert timeline[0] == {"at": 0.0, "kind": "suspend", "party": 1}
    assert all(entry["at"] >= 0.0 for entry in timeline)


def test_same_instant_events_order_by_kind_then_party():
    scenario = Scenario(
        name="tie",
        seed=5,
        ops=0,
        events=(
            LifecycleEvent(at=2.0, action="suspend", party=2),
            LifecycleEvent(at=2.0, action="kill", party=1),
            LifecycleEvent(at=2.0, action="kill", party=0),
        ),
    )
    kinds = [
        (e["kind"], e.get("party")) for e in plan_timeline(scenario)
    ]
    assert kinds == [("kill", 0), ("kill", 1), ("suspend", 2)]


def test_zero_ops_timeline_contains_only_faults():
    scenario = Scenario(name="quiet", seed=6, ops=0)
    assert plan_timeline(scenario) == []


# -- templates ----------------------------------------------------------------------


def test_every_fault_template_instantiates_and_validates():
    for name in FAULT_TEMPLATES:
        faults, events = fault_template(name, n=4)
        scenario = Scenario(name=f"tpl-{name}", faults=faults, events=events)
        scenario.validate()


def test_unknown_templates_rejected():
    with pytest.raises(ScenarioError, match="fault template"):
        fault_template("volcano", n=4)
    with pytest.raises(ScenarioError, match="latency template"):
        latency_template("warp")
    with pytest.raises(ScenarioError, match="load template"):
        load_template("crushing")


def test_partition_template_targets_last_party():
    faults, _ = fault_template("partition", n=7)
    assert faults.partitions[0].group == (6,)


def test_churn_template_needs_two_parties():
    with pytest.raises(ScenarioError, match="n >= 2"):
        fault_template("churn", n=1)


def test_parameterize_composes_latency_overlay_onto_fault_mix():
    scenario = parameterize_scenario(
        "composed", n=4, t=1, seed=9,
        fault="duplicating", latency="heavy", load="pipelined",
    )
    assert scenario.faults.duplicate_rate > 0  # from the fault mix
    assert scenario.faults.delay_rate == latency_template("heavy")["delay_rate"]
    assert scenario.op_concurrency == load_template("pipelined")["op_concurrency"]
    assert scenario.abc_max_batch == load_template("pipelined")["abc_max_batch"]
    # The composition itself is validated.
    with pytest.raises(ScenarioError):
        parameterize_scenario(
            "bad", n=4, t=1, seed=9, byzantine=((9, "silent"),)
        )


def test_parameterize_is_deterministic():
    a = parameterize_scenario("d", n=4, t=1, seed=5, fault="churn",
                              latency="jitter", load="serial")
    b = parameterize_scenario("d", n=4, t=1, seed=5, fault="churn",
                              latency="jitter", load="serial")
    assert a == b
    assert plan_timeline(a) == plan_timeline(b)


def test_template_catalogues_are_exported():
    assert "clean" in FAULT_TEMPLATES
    assert "none" in LATENCY_TEMPLATES
    assert "serial" in LOAD_TEMPLATES
