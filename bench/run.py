"""The benchmark's one command.

One workload, one pass — what ``BENCHMARK.json`` names and a driver runs::

    python3 bench/run.py --workload tcp_n4_open6 --seed 0 --seconds 15 --trace 0

prints every metric of that pass as ``workload metric value unit`` and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` wraps the layers (bench/trace.py) and
reports the per-layer metrics.

Everything at once — what a person runs::

    python3 bench/run.py --seed 0 --out bench/results/seed0.json

runs every workload untraced, then traced, each pass in a process of
its own, prints the same lines, checks that the exact counts repeat,
and writes the JSON that ``bench/compare.py`` reads.  ``--repeat R``
does all of that R times (seeds ``seed`` … ``seed+R-1``) and reports
each metric's median: on a shared host one run is an anecdote.
``--workload`` and ``--trace`` narrow it; ``--quick`` is a wiring smoke test (one short
traced pass per workload, two at a time) whose numbers are not
comparable.
"""

from __future__ import annotations

import sys
import pathlib

if __package__ in (None, ""):
    # Run as a script from a bare checkout: make ``bench`` and ``repro``
    # importable without an installed package or PYTHONPATH.
    _root = pathlib.Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_root), str(_root / "src")]

import argparse
import json
import signal
import statistics
import subprocess
from concurrent.futures import ThreadPoolExecutor

from bench import measure, trace
from bench.children import ROOT, WORK, run_module
from bench.compare import EXACT
from bench.workloads import WORKLOADS

QUICK_SECONDS = 1.0
GUARD_WORKLOAD = "sim_n7_set16"
GUARD_OPS = 200


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """One workload, one pass, in this process."""
    workload = WORKLOADS[name]
    if workload.backend == "tcp":
        from bench import tcp as backend
    else:
        from bench import sim as backend
    tracer = None
    if traced:
        # Before anything is wrapped, in a process of its own.
        probes = json.loads(run_module("bench.probes", name, seed))
        tracer = trace.Tracer()
        trace.install(tracer)
    result = backend.run(workload, seed, seconds, tracer, 1 if quick else measure.SETUPS)
    # The smoke test makes one (traced) pass do for both metric sets.
    metrics = {} if traced and not quick else measure.end_to_end(result)
    if traced:
        metrics.update(measure.per_layer(result, probes))
        # The raw spans this process kept (all nodes on sim_*, the
        # client side on tcp_*), for whoever wants to look inside.
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-{name}.json").write_text(json.dumps(tracer.spans))
    for error in result.errors:
        print(f"{name} INCORRECT {error}", file=sys.stderr)
    return {
        "correct": not result.errors and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def print_metrics(name: str, outcome: dict) -> None:
    for metric, entry in outcome["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name} samples {outcome['attempted'] - outcome['failed']} of "
        f"{outcome['attempted']} attempted, correct={outcome['correct']}"
    )


def run_child(name: str, seed: int, seconds: float, traced: bool, quick: bool, **env: str) -> dict:
    """The same, in a child: fresh memory high-water mark and caches."""
    try:
        out = run_module(
            "bench.run", "--workload", name, "--seed", seed, "--seconds", seconds,
            "--trace", int(traced), *(["--quick"] if quick else []), **env,
        )
    except subprocess.CalledProcessError as error:
        raise SystemExit(f"{name} trace={int(traced)} exited with {error.returncode}")
    return json.loads(out.splitlines()[-1])


def determinism_guard(seed: int, seconds: float, quick: bool) -> list[str]:
    """Run the guard workload's first operations twice in fresh
    processes; the exact counts are what later changes may claim on, so
    they must not depend on anything but the inputs."""
    seconds = min(seconds, GUARD_OPS / WORKLOADS[GUARD_WORKLOAD].ops_per_second)
    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(
            lambda _: run_child(GUARD_WORKLOAD, seed, seconds, True, quick, PYTHONHASHSEED="0"),
            range(2),
        )
    return [
        f"{GUARD_WORKLOAD} {metric}: {first['metrics'][metric]['value']} then "
        f"{second['metrics'][metric]['value']}"
        for metric in EXACT
        if first["metrics"][metric]["value"] != second["metrics"][metric]["value"]
    ]


def merge(outcomes: list[dict]) -> dict:
    """Repetitions of one pass as one outcome: each metric's median,
    with the values it is the median of."""
    metrics = {}
    for name, entry in outcomes[0]["metrics"].items():
        values = [outcome["metrics"][name]["value"] for outcome in outcomes]
        metrics[name] = {
            "value": statistics.median(values), "unit": entry["unit"], "values": values,
        }
    return {
        "correct": all(outcome["correct"] for outcome in outcomes),
        "attempted": sum(outcome["attempted"] for outcome in outcomes),
        "failed": sum(outcome["failed"] for outcome in outcomes),
        "metrics": metrics,
    }


def run_all(names: list[str], passes: list[bool], seed: int, seconds: float,
            quick: bool, repeat: int, out: str | None) -> int:
    # Repetitions are the outer loop, so that a workload's samples are
    # spread over the whole session and not over one mood of the host.
    jobs = [
        (name, traced, seed + index)
        for index in range(repeat) for traced in passes for name in names
    ]
    # Timed passes run one at a time.  The smoke test overlaps two, the
    # longest (last-listed) workload first so both workers end together.
    if quick:
        jobs.reverse()
    with ThreadPoolExecutor(2 if quick else 1) as pool:
        outcomes = list(
            pool.map(lambda job: run_child(job[0], job[2], seconds, job[1], quick), jobs)
        )
    runs: dict[str, dict] = {name: {} for name in names}
    for name in names:
        for traced in passes:
            merged = merge(
                [outcome for job, outcome in zip(jobs, outcomes) if job[:2] == (name, traced)]
            )
            print_metrics(name, merged)
            runs[name]["per_layer" if traced else "end_to_end"] = merged
    problems = [
        f"{name} trace={int(traced)} seed={job_seed}: incorrect or failed operations"
        for (name, traced, job_seed), outcome in zip(jobs, outcomes) if not outcome["correct"]
    ]
    for name, entry in runs.items():
        for warning in validity_warnings(name, entry):
            print(f"WARNING {warning}")
    if True in passes and GUARD_WORKLOAD in names:
        drift = determinism_guard(seed, seconds, quick)
        print(f"determinism guard: {'exact counts repeat' if not drift else drift}")
        problems += drift
    if out:
        document = {
            "seed": seed, "seconds": seconds, "repeat": repeat, "quick": quick, "runs": runs,
        }
        pathlib.Path(out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


def validity_warnings(name: str, entry: dict) -> list[str]:
    """Signs that the numbers do not mean what they should."""
    warnings = []
    layers = entry.get("per_layer", {}).get("metrics", {})
    if "end_to_end" in entry and layers:
        untraced = entry["end_to_end"]["metrics"]["cpu_ms_per_commit"]["value"]
        ratio = layers["bench.traced_cpu_ms_per_commit"]["value"] / untraced
        print(f"{name} bench.trace_overhead_ratio {ratio:.3f} ratio")
        if ratio > 1.5:
            warnings.append(f"{name}: tracing multiplies CPU per commit by {ratio:.2f}")
    if layers and layers["bench.generator_lateness_max_ms"]["value"] > 100:
        warnings.append(f"{name}: the open-loop generator ran more than 100 ms late")
    return warnings


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # A driver that gives up sends SIGTERM: unwind through the
    # ``finally`` blocks that stop replicas and remove directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if args.workload and args.trace is not None and not args.out:
        outcome = run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
        print_metrics(args.workload, outcome)
        print(json.dumps(outcome))
        return 0
    return run_all(
        [args.workload] if args.workload else list(WORKLOADS),
        [bool(args.trace)] if args.trace is not None else [True] if args.quick else [False, True],
        args.seed, seconds, args.quick, args.repeat, args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
