"""The contract file, and the smoke run it has to agree with."""

import json
import re
import subprocess
import sys
import time

import pytest

from bench.children import ROOT, child_env

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--seed", "7",
         "--out", str(out)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), done.stdout, elapsed


def test_the_file_has_the_shape_the_driver_accepts(spec):
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("lower", "higher") and UNIT.fullmatch(metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_runs_every_workload_end_to_end_in_under_a_minute(spec, quick):
    document, stdout, elapsed = quick
    assert elapsed < 60
    assert sorted(document["runs"]) == sorted(w["name"] for w in spec["workloads"])
    for name, run in document["runs"].items():
        outcome = run["per_layer"]
        assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 20
    assert "determinism guard: exact counts repeat" in stdout


def test_the_file_lists_exactly_the_names_and_units_the_driver_emits(spec, quick):
    document, _, _ = quick
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for run in document["runs"].values():
        emitted = {name: entry["unit"] for name, entry in run["per_layer"]["metrics"].items()}
        assert emitted == listed


def test_end_to_end_metrics_are_never_zero(spec, quick):
    document, _, _ = quick
    for run in document["runs"].values():
        for metric in spec["end_to_end"]:
            assert run["per_layer"]["metrics"][metric["name"]]["value"] > 0
