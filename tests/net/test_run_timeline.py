"""The one scenario interpreter, driven by a recording fake cluster.

No processes and no simulator: ``run_timeline`` is handed a cluster
that only writes down which verbs it was asked for, so these tests pin
the seam itself — what the interpreter owns (dispatch, the op window,
the quiescent window, the probes) and what it leaves to a backend.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.net import chaos
from repro.net.chaos import (
    FaultSpec,
    LifecycleEvent,
    PartitionSpec,
    Scenario,
    ScenarioError,
    plan_timeline,
    run_timeline,
)
from repro.net.checkers import JournalEntry

SCENARIO = Scenario(
    name="seam",
    seed=9,
    ops=7,
    op_concurrency=2,
    faults=FaultSpec(partitions=(PartitionSpec(start=2.5, stop=4.0, group=(3,)),)),
    events=(
        LifecycleEvent(at=2.2, action="kill", party=1),
        LifecycleEvent(at=2.3, action="corrupt-checkpoint", party=1),
        LifecycleEvent(at=2.4, action="restart", party=1),
        LifecycleEvent(at=2.6, action="suspend", party=2),
        LifecycleEvent(at=2.7, action="resume", party=2),
    ),
    reconfigs=((2.65, "refresh"),),
)


class FakeCluster:
    """Answers a call only when asked to wait for one (``next_reply``),
    oldest first, so a full window really does block the next op."""

    backend = "fake"
    latency_unit = "ticks"
    liveness_bound = 10.0

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.ticks = 0.0
        self.in_flight: list[tuple] = []
        self.peak = 0
        self.executed: list[JournalEntry] = []
        self.client = SimpleNamespace(
            client_id=1000,
            completed={},
            operation=lambda nonce: self.executed[nonce - 1].op,
            resubmissions=0,
            duplicate_replies=0,
            network=SimpleNamespace(trace=SimpleNamespace(counters={})),
        )

    def clock(self) -> float:
        self.ticks += 1.0
        return self.ticks

    def _commit(self, operation: tuple) -> SimpleNamespace:
        nonce = len(self.executed) + 1
        self.executed.append(JournalEntry(client=1000, nonce=nonce, op=operation))
        result = ("reconfig", "accepted", 1) if operation[0] == "reconfigure" else ("ok",)
        reply = SimpleNamespace(nonce=nonce, result=result)
        self.client.completed[nonce] = reply
        return reply

    async def advance_to(self, at):
        self.calls.append(("advance_to", at))

    async def kill(self, party):
        self.calls.append(("kill", party))

    async def suspend(self, party):
        self.calls.append(("suspend", party))

    async def resume(self, party):
        self.calls.append(("resume", party))

    async def restart(self, party):
        self.calls.append(("restart", party))
        return {"checkpoint": "loaded"}

    async def corrupt_checkpoint(self, party):
        self.calls.append(("corrupt_checkpoint", party))
        return {"corrupted": True}

    async def reconfigure(self, action):
        self.calls.append(("reconfigure", action))
        return 1, ("reconfigure", action)

    async def submit(self, operation, done):
        self.calls.append(("submit", operation))
        self.in_flight.append((operation, done))
        ops = [op for op, _ in self.in_flight if op[0] == "set"]
        self.peak = max(self.peak, len(ops))

    async def next_reply(self):
        self.calls.append(("next_reply",))
        operation, done = self.in_flight.pop(0)
        done(self._commit(operation))

    async def settle(self):
        self.calls.append(("settle",))

    async def entered(self, epochs):
        self.calls.append(("entered", epochs))
        return {0: [{"epoch": "1", "n": "4", "stale_shares_valid": "False"}]}

    async def probe(self, operation):
        self.calls.append(("probe", operation))
        self._commit(operation)
        return True

    async def close(self):
        self.calls.append(("close",))

    def journals(self):
        return {0: list(self.executed)}


def test_every_entry_reaches_one_verb_in_timeline_order():
    cluster = FakeCluster()
    report = asyncio.run(run_timeline(SCENARIO, cluster))
    timeline = plan_timeline(SCENARIO)
    assert report["timeline"] == timeline
    assert {entry["kind"] for entry in timeline} == {
        "op", "reconfig", "partition", "kill", "corrupt-checkpoint",
        "restart", "suspend", "resume",
    }

    expected: list[tuple] = []
    for entry in timeline:
        expected.append(("advance_to", entry["at"]))
        if entry["kind"] == "op":
            expected.append(("submit", tuple(entry["op"])))
        elif entry["kind"] == "reconfig":
            expected += [
                ("reconfigure", entry["action"]),
                ("submit", ("reconfigure", entry["action"])),
            ]
        elif entry["kind"] != "partition":  # the clock realizes a cut
            expected.append((entry["kind"].replace("-", "_"), entry["party"]))
    acted = [call for call in cluster.calls if call[0] != "next_reply"]
    assert acted[: len(expected)] == expected

    # What each verb observed lands in the event, beside the planned
    # time and the backend's own clock.
    by_kind = {event["kind"]: event for event in report["events"]}
    assert by_kind["restart"]["checkpoint"] == "loaded"
    assert by_kind["corrupt-checkpoint"]["corrupted"] is True
    assert by_kind["partition"] == {
        "at": 2.5, "kind": "partition", "group": [3], "heal_at": 4.0,
        "at_actual": by_kind["partition"]["at_actual"],
    }
    assert by_kind["reconfig"]["epoch"] == 1
    assert by_kind["reconfig"]["action"] == "refresh"
    assert by_kind["reconfig"]["result"] == ["reconfig", "accepted", 1]
    assert all("at_actual" in event for event in report["events"])
    assert report["backend"] == "fake" and report["latency_unit"] == "ticks"


def test_op_window_quiescent_window_and_probes():
    cluster = FakeCluster()
    report = asyncio.run(run_timeline(SCENARIO, cluster))
    # Nothing answers until the interpreter waits, so the window binds
    # (workload ops only: a reconfig is submitted whatever is in flight).
    assert cluster.peak == SCENARIO.op_concurrency
    assert report["ok"] and report["committed"] == 7 + 1 + chaos.LIVENESS_PROBES

    calls = cluster.calls
    last_entry = max(
        i for i, call in enumerate(calls)
        if call[0] in ("submit", "restart", "resume")
    )
    quiet = calls.index(("advance_to", 4.0 + 1.0))  # last heal + 1s
    settled = calls.index(("settle",))
    probes = [i for i, call in enumerate(calls) if call[0] == "probe"]
    assert last_entry < quiet < settled < probes[0]
    # The accepted refresh opened epoch 1 of 4 members: the cluster is
    # asked what its members said about it before the probes.
    assert settled < calls.index(("entered", {1: 4})) < probes[0]
    assert report["reconfig"] == {"ok": True, "epochs": {1: 4}, "issues": [], "kinds": []}
    assert calls.index(("restart", 1)) < settled
    # Calls still in flight are collected before the window opens.
    assert not cluster.in_flight
    assert all(i < probes[0] for i, c in enumerate(calls) if c == ("next_reply",))
    assert [calls[i][1] for i in probes] == [
        ("set", f"probe-{i}", i) for i in range(chaos.LIVENESS_PROBES)
    ]
    assert calls[-1] == ("close",)

    kinds = [event["kind"] for event in report["events"]]
    assert kinds[-1 - chaos.LIVENESS_PROBES:] == (
        ["quiescent"] + ["probe"] * chaos.LIVENESS_PROBES
    )
    assert len(report["liveness"]["probes"]) == chaos.LIVENESS_PROBES
    ops = [event for event in report["events"] if event["kind"] == "op"]
    assert len(ops) == 7 and all(event["latency"] > 0 for event in ops)


def test_unknown_timeline_kind_raises_and_the_cluster_is_closed(monkeypatch):
    monkeypatch.setattr(
        chaos, "plan_timeline", lambda scenario: [{"at": 1.0, "kind": "explode"}]
    )
    cluster = FakeCluster()
    with pytest.raises(ScenarioError, match="unknown timeline kind 'explode'"):
        asyncio.run(run_timeline(SCENARIO, cluster))
    assert cluster.calls == [("advance_to", 1.0), ("close",)]

