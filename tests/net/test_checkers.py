"""The chaos oracles: prefix-consistency safety and quiescent liveness."""

from __future__ import annotations

import json

from repro.net.checkers import (
    JournalEntry,
    check_liveness,
    check_reconfigs,
    check_safety,
    opened_epochs,
    percentile,
    read_journals,
    summarize_run,
    violation_kinds,
)


def entry(nonce: int, op=None, client: int = 100, round: int = -1) -> JournalEntry:
    return JournalEntry(
        client=client, nonce=nonce, op=tuple(op or ("set", "k", nonce)), round=round
    )


# -- safety -------------------------------------------------------------------------


def test_prefixes_of_different_lengths_are_consistent():
    log = [entry(1), entry(2), entry(3)]
    report = check_safety({0: log, 1: log[:2], 2: log, 3: []})
    assert report.ok and report.issues == []
    assert report.longest == 3


def test_divergence_is_a_safety_violation():
    shared = [entry(1)]
    report = check_safety(
        {0: shared + [entry(2)], 1: shared + [entry(9, op=("set", "evil", 9))]}
    )
    assert not report.ok
    assert len(report.issues) == 1
    assert "divergence at position 1" in report.issues[0]


def test_one_divergence_reported_per_pair():
    a = [entry(1), entry(2), entry(3)]
    b = [entry(7), entry(8), entry(9)]
    report = check_safety({0: a, 1: b})
    assert len(report.issues) == 1  # first divergence is evidence enough


def test_committed_op_must_survive_in_the_longest_journal():
    log = [entry(1), entry(2)]
    ok = check_safety({0: log, 1: log}, committed=[entry(2)])
    assert ok.ok
    lost = check_safety({0: log, 1: log[:1]}, committed=[entry(3)])
    assert not lost.ok
    assert "committed operation lost" in lost.issues[0]
    assert "nonce 3" in lost.issues[0]


def test_committed_check_uses_the_longest_journal():
    """A replica that died before executing a committed op is fine as
    long as *some* honest journal (the longest) carries it."""
    full = [entry(1), entry(2), entry(3)]
    report = check_safety({0: full, 1: full[:1]}, committed=[entry(3)])
    assert report.ok


def test_batched_rounds_may_share_a_round_number():
    """Batching puts several executions in one atomic-broadcast round;
    equal consecutive rounds are fine, decreasing ones are not."""
    log = [entry(1, round=1), entry(2, round=1), entry(3, round=2)]
    report = check_safety({0: log, 1: log})
    assert report.ok and report.issues == []


def test_round_regression_is_a_safety_violation():
    log = [entry(1, round=2), entry(2, round=1)]
    report = check_safety({0: log})
    assert not report.ok
    assert "round regression in journal of replica 0" in report.issues[0]
    assert "position 1" in report.issues[0]


def test_round_regression_reported_once_per_journal():
    log = [entry(1, round=3), entry(2, round=2), entry(3, round=1)]
    report = check_safety({0: log})
    assert len(report.issues) == 1


def test_safety_report_serializes():
    report = check_safety({0: [entry(1)], 1: [entry(1)]}, committed=[entry(1)])
    data = json.loads(json.dumps(report.to_json()))
    assert data == {"ok": True, "issues": [], "longest": 1, "kinds": []}


# -- journal files ------------------------------------------------------------------


def test_read_journals_parses_lines_and_tolerates_absence(tmp_path):
    journal_dir = tmp_path / "journal"
    journal_dir.mkdir()
    lines = [
        {"i": 0, "client": 100, "nonce": 1, "op": ["set", "a", 1]},
        {"i": 1, "client": 100, "nonce": 2, "op": ["set", "b", 2]},
    ]
    (journal_dir / "exec-0.jsonl").write_text(
        "\n".join(json.dumps(line) for line in lines) + "\n"
    )
    journals = read_journals(tmp_path, [0, 3])
    assert journals[0] == [
        entry(1, op=("set", "a", 1)),
        entry(2, op=("set", "b", 2)),
    ]
    assert journals[3] == []  # killed before its first execution
    assert check_safety(journals).ok


def test_journal_entry_key_identifies_the_request():
    one = JournalEntry.from_json({"client": 5, "nonce": 9, "op": ["get", "x"]})
    assert one.key() == (5, 9)
    assert one.op == ("get", "x")


# -- liveness -----------------------------------------------------------------------


def test_probes_within_bound_pass():
    probes = [{"op": ["set", "p", 0], "latency": 0.8}, {"op": ["set", "q", 1], "latency": 2.0}]
    report = check_liveness(probes, bound=5.0)
    assert report.ok and report.issues == []
    assert report.to_json()["bound"] == 5.0


def test_timed_out_probe_fails_liveness():
    report = check_liveness([{"op": ["set", "p", 0], "latency": None}], bound=5.0)
    assert not report.ok
    assert "never completed" in report.issues[0]


def test_slow_probe_fails_liveness():
    report = check_liveness([{"op": ["set", "p", 0], "latency": 9.5}], bound=5.0)
    assert not report.ok
    assert "bound" in report.issues[0]


# -- violation tags -----------------------------------------------------------------


def test_checkers_tag_their_violations():
    divergent = check_safety(
        {0: [entry(1)], 1: [entry(9, op=("set", "evil", 9))]}
    )
    assert divergent.kinds == ["safety.divergence"]
    lost = check_safety({0: [entry(1)]}, committed=[entry(3)])
    assert lost.kinds == ["safety.lost-commit"]
    regressed = check_safety({0: [entry(1, round=2), entry(2, round=1)]})
    assert regressed.kinds == ["safety.round-regression"]
    stuck = check_liveness([{"op": ["get", "x"], "latency": None}], bound=5.0)
    assert stuck.kinds == ["liveness.stuck"]
    slow = check_liveness([{"op": ["get", "x"], "latency": 9.0}], bound=5.0)
    assert slow.kinds == ["liveness.slow"]


def test_violation_kinds_collects_both_checkers():
    report = {
        "safety": {"issues": ["boom"], "kinds": ["safety.divergence"]},
        "liveness": {"issues": ["stuck"], "kinds": ["liveness.stuck"]},
    }
    assert violation_kinds(report) == ["safety.divergence", "liveness.stuck"]
    assert violation_kinds({"safety": {"issues": [], "kinds": []}}) == []


# -- summaries ----------------------------------------------------------------------


# -- reconfiguration ----------------------------------------------------------------


def _change(action: str, epoch: int, result=None) -> dict:
    return {
        "kind": "reconfig", "action": action, "epoch": epoch,
        "result": ["reconfig", "accepted", epoch] if result is None else result,
    }


def _entered(epoch: int, n: int, stale: str | None = "False") -> dict:
    line = {"party": "0", "epoch": str(epoch), "n": str(n)}
    if stale is not None:
        line["stale_shares_valid"] = stale
    return line


# A dealerless run's walk: 4 -> 5 -> 4, party 4 joins for epoch 1 only.
_WALK = [_change("add", 1), {"kind": "op", "latency": 0.1}, _change("remove", 2)]
_CLEAN = {
    **{p: [_entered(1, 5), _entered(2, 4)] for p in range(4)},
    4: [_entered(1, 5, stale=None)],
}


def test_opened_epochs_follow_the_accepted_changes():
    assert opened_epochs(_WALK, 4) == {1: 5, 2: 4}
    rejected = [_change("add", 1, result=["reconfig", "rejected"]), _change("remove", 2)]
    assert opened_epochs(rejected, 4) == {2: 3}


def test_a_clean_walk_passes_the_reconfiguration_check():
    report = check_reconfigs(_WALK, _CLEAN, 4)
    assert report.ok and report.kinds == [] and report.issues == []
    assert report.to_json()["epochs"] == {1: 5, 2: 4}
    # No reconfiguration, nothing to say.
    assert check_reconfigs([{"kind": "op"}], {0: []}, 4).ok


def test_reconfiguration_check_tags_each_failure():
    events = [
        _change("add", 1),
        _change("remove", 2, result=["reconfig", "rejected"]),
        {"kind": "reconfig", "action": "refresh", "epoch": 3, "latency": None},
    ]
    entered = {
        0: [_entered(1, 5)],
        1: [_entered(1, 5, stale="True")],
        2: [],
        3: [_entered(1, 5)],
        4: [_entered(1, 5, stale=None)],
    }
    report = check_reconfigs(events, entered, 4)
    assert not report.ok
    assert report.kinds == [
        "reconfig.rejected",
        "reconfig.rejected",
        "reconfig.stale-shares",
        "reconfig.not-entered",
    ]
    assert "replica 2 never said it entered epoch 1" in report.issues
    kinds = violation_kinds({"reconfig": report.to_json()})
    assert kinds == report.kinds


def test_percentile_nearest_rank():
    assert percentile([], 0.5) is None
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.25) == 1.0  # sorts first


def test_summarize_run_extracts_latencies_and_throughput():
    report = {
        "ok": True,
        "committed": 4,
        "last_round": 6,
        "latency_unit": "seconds",
        "events": [
            {"kind": "op", "latency": 0.1, "at_actual": 0.0},
            {"kind": "op", "latency": 0.3, "at_actual": 1.0},
            {"kind": "op", "latency": None, "at_actual": 2.0},
            {"kind": "partition", "at_actual": 0.5},
        ],
        "safety": {"issues": [], "kinds": []},
        "liveness": {
            "probes": [{"op": ["get", "p"], "latency": 0.2}],
            "issues": [],
            "kinds": [],
        },
    }
    summary = summarize_run(report)
    assert summary["ok"] and summary["committed"] == 4
    assert summary["ops"] == 3 and summary["probes"] == 1
    assert summary["latency_p50"] == 0.1  # None latency excluded
    assert summary["probe_p50"] == 0.2
    assert summary["ops_per_s"] == 2.0  # 4 committed over a 2s span
    assert summary["rounds_per_commit"] == 1.5  # 6 rounds for 4 commits
    assert summary["violations"] == []


def test_summarize_run_skips_throughput_for_step_latencies():
    report = {
        "ok": False,
        "committed": 0,
        "latency_unit": "steps",
        "events": [{"kind": "op", "latency": None}],
        "liveness": {
            "probes": [{"op": ["get", "p"], "latency": None}],
            "issues": ["probe never completed"],
            "kinds": ["liveness.stuck"],
        },
    }
    summary = summarize_run(report)
    assert summary["ops_per_s"] is None
    assert summary["rounds_per_commit"] is None  # nothing committed
    assert summary["latency_p50"] is None
    assert summary["violations"] == ["liveness.stuck"]
