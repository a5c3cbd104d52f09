"""Sweep harness: grid expansion, the in-process backend, and the
end-to-end campaign driver.

TCP cells are disabled here (``tcp_override=0``) — subprocess clusters
are exercised by the chaos tests and the CI smoke sweep; these tests
keep tier-1 fast and hermetic.
"""

import asyncio
import json
import socket

import pytest

from repro.core.atomic_broadcast import AbcConfig
from repro.net import sweep as sweep_module
from repro.net import wire
from repro.net.adversary import MutatingNode, SilentNode, SpamNode
from repro.net.chaos import (
    ScenarioError,
    builtin_scenarios,
    parameterize_scenario,
    replay_journal,
    run_timeline,
)
from repro.net.sweep import (
    ShapeSpec,
    SimCluster,
    SweepCell,
    SweepSpec,
    aggregate,
    expand_cells,
    nightly_spec,
    run_scenario_sim,
    run_sweep,
    smoke_spec,
    write_markdown,
)
from repro.smr.replica import service_session

# -- spec parsing and labels --------------------------------------------------------


def test_shape_labels():
    assert ShapeSpec(n=4, t=1).label == "n4t1"
    assert ShapeSpec(n=4, t=1, byzantine=((3, "silent"),)).label == "n4t1+1silent"
    assert (
        ShapeSpec(n=4, t=1, byzantine=((2, "silent"), (3, "silent"))).label
        == "n4t1+2silent"
    )
    assert (
        ShapeSpec(
            n=7, t=2, byzantine=((5, "equivocate"), (6, "silent"))
        ).label
        == "n7t2+2(equivocate+silent)"
    )


def test_sweep_spec_roundtrip():
    spec = smoke_spec()
    again = SweepSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again == spec


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("name"), "missing name"),
        (lambda d: d.update(shapes=[]), "at least one shape"),
        (lambda d: d.update(extra=1), "unknown key"),
        (lambda d: d.update(faults=["volcano"]), "unknown faults template"),
        (lambda d: d.update(latencies=["warp"]), "unknown latencies template"),
        (lambda d: d.update(loads=["crushing"]), "unknown loads template"),
        (lambda d: d.update(faults=[]), "empty faults axis"),
        (lambda d: d.update(seeds=[1, 1]), "duplicate seeds"),
        (lambda d: d.update(tcp_cells=-1), "negative tcp_cells"),
        (lambda d: d["shapes"][0].update(expect="maybe"), "expect"),
        (
            lambda d: d["shapes"][0].update(byzantine=[[9, "silent"]]),
            "outside",
        ),
    ],
)
def test_malformed_sweep_spec_rejected(mutate, message):
    data = smoke_spec().to_json()
    mutate(data)
    with pytest.raises(ScenarioError, match=message):
        SweepSpec.from_json(data)


def test_shapes_sharing_a_label_are_refused():
    """A label names the coalition's size and kind, not its parties, and
    keys the reports: two such shapes would overwrite each other's."""
    shapes = [
        {"n": 4, "t": 1, "byzantine": [[3, "equivocate"]]},
        {"n": 4, "t": 1, "byzantine": [[0, "equivocate"]]},
    ]
    with pytest.raises(ScenarioError, match=r"\(3, 'equivocate'\).*\(0, 'equivocate'\)"):
        SweepSpec.from_json({"name": "clash", "shapes": shapes})


# -- expansion ----------------------------------------------------------------------


def test_smoke_grid_expands_to_documented_cell_count():
    cells = expand_cells(smoke_spec())
    # 2 pass shapes x 2 faults x 2 latencies x 1 load x 3 seeds = 24,
    # 1 violation shape x (first of each axis) x 3 seeds = 3, + 1 TCP.
    assert len(cells) == 28
    assert sum(1 for c in cells if c.backend == "sim") == 27
    assert sum(1 for c in cells if c.backend == "tcp") == 1
    assert sum(1 for c in cells if c.expected == "violation") == 3
    # Smoke covers at least three axes with >1 value (acceptance floor).
    spec = smoke_spec()
    multi_axes = [
        axis
        for axis in (spec.shapes, spec.faults, spec.latencies, spec.seeds)
        if len(axis) > 1
    ]
    assert len(multi_axes) >= 3


def test_expansion_is_deterministic_and_seeds_innermost():
    spec = smoke_spec()
    a = expand_cells(spec)
    b = expand_cells(spec)
    assert [c.label for c in a] == [c.label for c in b]
    assert [c.scenario for c in a] == [c.scenario for c in b]
    # Same grid point, adjacent seeds: only the seed differs.
    assert a[0].label == "n4t1/clean/none/serial/s101"
    assert a[1].label == "n4t1/clean/none/serial/s102"
    assert a[0].scenario.seed == 101 and a[1].scenario.seed == 102


def test_violation_shapes_do_not_multiply_across_benign_axes():
    spec = SweepSpec(
        name="v",
        shapes=(ShapeSpec(n=4, t=1, byzantine=((2, "silent"), (3, "silent")),
                          expect="violation"),),
        faults=("clean", "duplicating", "partition"),
        latencies=("none", "jitter"),
        seeds=(1, 2),
    )
    cells = expand_cells(spec)
    assert len(cells) == 2  # one grid point per seed, not 3x2x2
    assert all(c.scenario.faults.duplicate_rate == 0 for c in cells)


def test_tcp_cells_sample_only_expected_pass_cells():
    spec = SweepSpec(
        name="t",
        shapes=(
            ShapeSpec(n=4, t=1),
            ShapeSpec(n=4, t=1, byzantine=((2, "silent"), (3, "silent")),
                      expect="violation"),
        ),
        seeds=(1, 2, 3),
        tcp_cells=2,
    )
    cells = expand_cells(spec)
    tcp = [c for c in cells if c.backend == "tcp"]
    assert len(tcp) == 2
    assert all(c.expected == "pass" for c in tcp)
    assert all(c.label.startswith("tcp:") for c in tcp)
    # Evenly sampled: first and last of the pass pool.
    assert tcp[0].label == "tcp:n4t1/clean/none/serial/s1"
    assert tcp[1].label == "tcp:n4t1/clean/none/serial/s3"


def test_nightly_grid_meets_the_floor():
    cells = expand_cells(nightly_spec())
    assert sum(1 for c in cells if c.backend == "sim") >= 100
    assert sum(1 for c in cells if c.backend == "tcp") >= 6


# -- the in-process simulator backend -----------------------------------------------


def _cell(label_prefix: str, **kwargs) -> SweepCell:
    spec = SweepSpec(name="one", shapes=(ShapeSpec(**kwargs),), seeds=(7,))
    return expand_cells(spec)[0]


def test_clean_cell_passes_and_is_deterministic(tmp_path):
    cell = _cell("clean")
    first = run_scenario_sim(cell.scenario)
    second = run_scenario_sim(cell.scenario)
    assert first["ok"] and second["ok"]
    assert first["committed"] == second["committed"] > 0
    assert first["journal_lengths"] == second["journal_lengths"]
    # Serial load: every op rides its own round, none delivers nothing.
    assert first["last_round"] == second["last_round"] == first["committed"]
    assert first["timeline"] == second["timeline"]
    assert first["backend"] == "sim"
    assert first["latency_unit"] == "steps"
    journal = tmp_path / "journal.json"
    journal.write_text(json.dumps(first))
    assert replay_journal(journal) == 0  # sim journals replay too


def test_a_clean_smoke_cell_drops_nothing_at_admission(tmp_path):
    """Every message an honest cell sends has its declared types."""
    scenario = expand_cells(smoke_spec())[0].scenario
    assert not scenario.byzantine

    async def run() -> dict:
        cluster = await SimCluster.boot(scenario, tmp_path)
        report = await run_timeline(scenario, cluster)
        assert report["ok"] and cluster.network.delivered_count > 0
        return cluster.network.trace.counters

    assert asyncio.run(run())["admission.dropped"] == 0


@pytest.mark.parametrize("name", ["reconfig-churn", "dealerless"])
def test_a_seeded_simulator_run_orders_the_same_reconfigure_bytes(name, monkeypatch):
    """The cell's addresses are fixed, so an ``add`` carries the same
    joiner address, and the signed operation the same bytes, every run."""
    recorded: list[bytes] = []
    real = SimCluster.reconfigure

    async def recording(self, action):
        target, operation = await real(self, action)
        recorded.append(wire.dumps(operation))
        return target, operation

    monkeypatch.setattr(SimCluster, "reconfigure", recording)
    scenario = builtin_scenarios()[name]
    run_scenario_sim(scenario)
    first, recorded[:] = list(recorded), []
    run_scenario_sim(scenario)
    assert len(first) == len(scenario.reconfigs) and recorded == first


def test_a_simulator_cell_binds_no_socket(monkeypatch):
    """Booting, dealing and an ``add`` on the simulator look for no free
    port: nothing there listens."""

    def refuse(self, address):
        raise OSError(f"a simulator cell bound {address}")

    monkeypatch.setattr(socket.socket, "bind", refuse)
    report = run_scenario_sim(builtin_scenarios()["dealerless"])
    assert report["ok"]


@pytest.mark.parametrize("name", ["reconfig-churn", "dealerless"])
def test_a_reconfiguring_scenario_runs_on_the_simulator(name, tmp_path):
    """The simulator's hosts are the deployed ones: a refresh under a
    kill, and a dealerless boot followed by an add and a remove, run
    there — green on every oracle, the same report twice, and a journal
    that replays."""
    scenario = builtin_scenarios()[name]
    first = run_scenario_sim(scenario)
    assert first["ok"], (first["safety"], first["liveness"], first["reconfig"])
    accepted = [e for e in first["events"] if e["kind"] == "reconfig"]
    assert len(accepted) == len(scenario.reconfigs)
    assert all(e["result"][:2] == ["reconfig", "accepted"] for e in accepted)
    assert run_scenario_sim(scenario) == first
    journal = tmp_path / "journal.json"
    journal.write_text(json.dumps(first))
    assert replay_journal(journal) == 0


def test_a_corrupted_checkpoint_is_rejected_on_the_simulator():
    """``kill-recover`` edits the killed party's checkpoint file; its
    restart rejects it and recovers from peers, as on TCP."""
    report = run_scenario_sim(builtin_scenarios()["kill-recover"])
    assert report["ok"], (report["safety"], report["liveness"])
    said = {e["kind"]: e for e in report["events"] if "party" in e}
    assert said["corrupt-checkpoint"]["corrupted"] is True
    assert said["restart"]["checkpoint"] == "rejected"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: after a whole-cluster restart "
                   "every host stays recovering (no recovering peer answers), and a "
                   "committed write past the last checkpoint is lost")
def test_a_whole_cluster_restart_keeps_every_commit_and_recovers(tmp_path):
    """Kill all n hosts of a dealt cell and restart them all from their
    checkpoints (``checkpoint_every`` = 2, three writes committed): each
    must leave recovery, and the state must hold every committed write
    and a probe written after."""
    scenario = parameterize_scenario("total-restart", n=4, t=1, seed=7)

    async def run():
        cluster = await SimCluster.boot(scenario, tmp_path)
        answers = []
        for i in range(3):
            await cluster.submit(("set", f"k{i}", i), answers.append)
            await cluster.next_reply()
        assert all(answers)
        for party in range(4):
            await cluster.kill(party)
        for party in range(4):
            assert await cluster.restart(party) == {"checkpoint": "loaded"}
        await cluster.settle()
        answered = await cluster.probe(("set", "after", 1))
        hosts = [replica.host for replica in cluster.replicas.values()]
        await cluster.close()
        return hosts, answered

    hosts, answered = asyncio.run(run())
    assert answered
    assert [host.replica.recovering for host in hosts] == [False] * 4
    for host in hosts:
        assert dict(host.replica.state_machine.snapshot()[1]) == {
            "k0": 0, "k1": 1, "k2": 2, "after": 1,
        }


def test_admissible_coalition_still_commits():
    cell = _cell("byz", byzantine=((3, "silent"),))
    report = run_scenario_sim(cell.scenario)
    assert report["ok"]
    assert report["committed"] > 0


def test_inadmissible_coalition_trips_the_liveness_oracle():
    cell = _cell(
        "viol",
        byzantine=((2, "silent"), (3, "silent")),
        expect="violation",
    )
    report = run_scenario_sim(cell.scenario)
    assert not report["ok"]
    kinds = set(report["liveness"]["kinds"]) | set(report["safety"]["kinds"])
    assert "liveness.stuck" in kinds


def test_faulty_network_templates_still_pass():
    spec = SweepSpec(
        name="faulty",
        shapes=(ShapeSpec(n=4, t=1),),
        faults=("partition", "churn"),
        latencies=("jitter",),
        seeds=(5,),
    )
    for cell in expand_cells(spec):
        report = run_scenario_sim(cell.scenario)
        assert report["ok"], (cell.label, report["safety"], report["liveness"])


@pytest.mark.parametrize(
    "latency, load, seed",
    [
        ("none", "serial", 14),
        ("none", "serial", 16),
        ("jitter", "pipelined", 13),
        ("heavy", "serial", 11),
        ("heavy", "serial", 16),
        ("heavy", "pipelined", 11),
    ],
)
def test_an_equivocator_behind_a_partition_does_not_stall_the_service(latency, load, seed):
    """One equivocating server behind a partition: each of these cells
    stalled while a digest asked for (and not answered) in one round was
    never asked for again in a later one — the empty batch has one
    digest in every round."""
    scenario = parameterize_scenario(
        f"eq-partition-{latency}-{load}-s{seed}",
        n=4, t=1, seed=seed, fault="partition", latency=latency, load=load,
        byzantine=((3, "equivocate"),),
    )
    report = run_scenario_sim(scenario)
    assert report["ok"], (report["safety"], report["liveness"])


def test_an_equivocator_runs_the_scenarios_abc_config(tmp_path):
    """The corrupted party is its host's own stack behind a mutator:
    under the pipelined load it batches and pipelines like its peers,
    not at the protocol defaults."""
    scenario = parameterize_scenario(
        "eq-pipelined", n=4, t=1, seed=7, fault="clean", latency="none",
        load="pipelined", byzantine=((3, "equivocate"),),
    )
    cluster = asyncio.run(SimCluster.boot(scenario, tmp_path))
    node = cluster.network.nodes[3]
    assert isinstance(node, MutatingNode)
    replica = node.inner.instances[service_session()]
    assert replica is cluster.replicas[3].host.replica
    assert replica.abc.config == AbcConfig(8, 3)
    asyncio.run(cluster.close())


@pytest.mark.parametrize(
    "kind, node_type",
    [("silent", SilentNode), ("spam", SpamNode), ("equivocate", MutatingNode)],
)
def test_a_restarted_byzantine_party_stays_byzantine(kind, node_type, tmp_path):
    """A kill and restart gives a corrupted party back its behaviour: the
    restart is a new host with the same ``byzantine`` kind on both
    networks; an equivocator's fresh stack replays the log like an
    honest restart."""
    scenario = parameterize_scenario(
        f"restart-{kind}", n=4, t=1, seed=7, fault="clean", latency="none",
        load="serial", byzantine=((3, kind),),
    )
    cluster = asyncio.run(SimCluster.boot(scenario, tmp_path))
    first = cluster.replicas[3].host
    asyncio.run(cluster.kill(3))
    asyncio.run(cluster.restart(3))
    host = cluster.replicas[3].host
    assert host is not first and host.byzantine == kind
    node = cluster.network.nodes[3]
    assert isinstance(node, node_type)
    assert 3 not in cluster.network.crashed and 3 not in cluster.journals()
    if kind == "equivocate":
        replica = node.inner.instances[service_session()]
        assert replica is host.replica and replica.recovering
    asyncio.run(cluster.close())


# -- the campaign driver ------------------------------------------------------------


def _tiny_spec() -> SweepSpec:
    return SweepSpec(
        name="tiny",
        shapes=(
            ShapeSpec(n=4, t=1),
            ShapeSpec(n=4, t=1, byzantine=((2, "silent"), (3, "silent")),
                      expect="violation"),
        ),
        seeds=(31, 32),
    )


def test_run_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "SWEEP.json"
    md = tmp_path / "SWEEP.md"
    repro = tmp_path / "repro"
    rc = run_sweep(
        _tiny_spec(),
        out=out,
        markdown=md,
        repro_dir=repro,
        workers=1,
        tcp_override=0,
    )
    assert rc == 0  # expected violations firing is a *pass* for the sweep
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    totals = payload["totals"]
    assert totals == {
        "runs": 4,
        "sim": 4,
        "tcp": 0,
        "passed": 2,
        "violations": 2,
        "expected_violations": 2,
        "mismatched": 0,
        "by_violation": totals["by_violation"],
    }
    assert totals["by_violation"]  # the oracle named its violation kinds
    # Records are in expansion order and schema-stable.
    record_keys = {
        "cell", "backend", "scenario", "seed", "expected", "outcome",
        "matched", "violations", "summary", "repro",
    }
    assert [set(r) == record_keys for r in payload["runs"]]
    assert [r["cell"] for r in payload["runs"]] == [
        "n4t1/clean/none/serial/s31",
        "n4t1/clean/none/serial/s32",
        "n4t1+2silent/clean/none/serial/s31",
        "n4t1+2silent/clean/none/serial/s32",
    ]
    # Markdown table renders one row per run.
    table_rows = [
        line for line in md.read_text().splitlines()
        if line.startswith("| `")
    ]
    assert len(table_rows) == 4

    # Every violating cell emitted a bundle that the chaos replayer
    # accepts verbatim (the acceptance-criterion loop).
    bundles = sorted(repro.glob("*.json"))
    assert len(bundles) == 2
    for bundle_path in bundles:
        bundle = json.loads(bundle_path.read_text())
        assert bundle["scenario"]["byzantine"]
        assert replay_journal(bundle_path) == 0


def test_run_sweep_flags_expected_violation_that_passes(tmp_path):
    # A shape wrongly marked expect="violation" (coalition within t)
    # must fail the sweep: the oracle self-test is two-sided.
    spec = SweepSpec(
        name="self-test",
        shapes=(ShapeSpec(n=4, t=1, byzantine=((3, "silent"),),
                          expect="violation"),),
        seeds=(41,),
    )
    rc = run_sweep(
        spec, out=tmp_path / "s.json", workers=1, tcp_override=0,
    )
    assert rc == 1
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["totals"]["mismatched"] == 1
    assert payload["runs"][0]["outcome"] == "pass"
    assert payload["runs"][0]["repro"] is None


def test_a_tcp_run_that_raises_is_a_harness_error(tmp_path, monkeypatch):
    """A TCP cell runs in this process; one whose run raises is a
    violation the sweep counts as mismatched, never a covered cell."""

    def unreachable(scenario):
        raise OSError("no free port")

    monkeypatch.setattr(sweep_module, "run_tcp", unreachable)
    spec = SweepSpec(
        name="tcp-error", shapes=(ShapeSpec(n=4, t=1),), seeds=(51,), tcp_cells=1
    )
    assert run_sweep(spec, out=tmp_path / "s.json", workers=1) == 1
    payload = json.loads((tmp_path / "s.json").read_text())
    (record,) = [r for r in payload["runs"] if r["backend"] == "tcp"]
    assert record["violations"] == ["harness.error"]
    assert not record["matched"]
    assert payload["totals"]["mismatched"] == 1


def test_aggregate_and_markdown_handle_empty_violations(tmp_path):
    spec = SweepSpec(name="agg", shapes=(ShapeSpec(),))
    records = [
        {
            "cell": "n4t1/clean/none/serial/s1",
            "backend": "sim",
            "scenario": "sweep-n4t1-clean-none-serial",
            "seed": 1,
            "expected": "pass",
            "outcome": "pass",
            "matched": True,
            "violations": [],
            "summary": {
                "ok": True, "committed": 6, "ops": 6, "probes": 2,
                "latency_unit": "steps", "latency_p50": 120.0,
                "latency_p99": 130.0, "probe_p50": 90.0,
                "ops_per_s": None, "violations": [],
            },
            "repro": None,
        }
    ]
    payload = aggregate(spec, records)
    assert payload["totals"]["by_violation"] == {}
    md = tmp_path / "r.md"
    write_markdown(payload, md)
    text = md.read_text()
    assert "120 steps" in text
    assert "⚠" not in text
