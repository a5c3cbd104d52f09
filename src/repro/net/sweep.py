"""Grid-driven chaos campaigns: the scenario-coverage engine.

One chaos scenario probes one point of the fault space; the paper's
claims are quantified over *all* admissible adversaries.  This module
closes some of that gap by sweeping a declarative grid
(:class:`SweepSpec`) over the axes that change protocol behavior
qualitatively:

* **cluster shape** — ``n``/``t`` and the corrupted coalition
  (:class:`ShapeSpec`), including deliberately inadmissible coalitions
  (``expect="violation"``) that must make a checker fire — the sweep
  doubles as a self-test of the oracles;
* **fault mix** — named :func:`~repro.net.chaos.fault_template` mixes
  (clean, lossy, duplicating, partition, churn);
* **latency distribution** — :func:`~repro.net.chaos.latency_template`
  overlays (none, jitter, heavy);
* **client load** — :func:`~repro.net.chaos.load_template` workloads
  (serial, pipelined, heavy) carrying the atomic-broadcast
  batching/pipelining knobs;
* **seeds** — every cell is run per seed, and every run is a
  deterministic function of its scenario (seed included).

Each cell expands to a concrete :class:`~repro.net.chaos.Scenario` via
:func:`~repro.net.chaos.parameterize_scenario`.  The **simulator
backend** (:func:`run_scenario_sim`) is the breadth path: the grid runs
in-process on the discrete-event network with a scheduler that realizes
the scenario's partitions, suspensions and reorder pressure, at
thousands of delivery steps per second.  A sampled subset re-runs on
the **TCP backend** (real replica subprocesses via
``python -m repro chaos run``) for depth.  Every run — both backends —
is judged by the same :mod:`repro.net.checkers` safety/liveness
oracles.

Results aggregate into a schema-stable ``SWEEP.json`` (pass/fail per
cell, violation kinds, latency summaries) plus a markdown table, and
any cell whose outcome is a violation emits a self-contained repro
bundle that ``python -m repro chaos replay`` accepts verbatim.

**Simulator fault-model note.**  Frame-level faults (reset / corrupt /
duplicate) live *below* the channel abstraction the simulator models —
the simulated channels are reliable and authenticated by construction.
The scheduler therefore maps the scenario's frame-fault rates onto
*reorder pressure* (adversarial LIFO preference), which is the
observable consequence the protocols must tolerate; the byte-level
machinery is exercised by the TCP subset.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..core.atomic_broadcast import AbcConfig
from ..smr.service import build_service
from ..smr.state_machine import KeyValueStore
from .chaos import (
    FAULT_TEMPLATES,
    LATENCY_TEMPLATES,
    LOAD_TEMPLATES,
    OP_TIMEOUT,
    Scenario,
    ScenarioError,
    _check_shape,
    _require,
    _Spec,
    byzantine_node,
    parameterize_scenario,
    plan_timeline,
    run_timeline,
)
from .checkers import JournalEntry, summarize_run, violation_kinds
from .scheduler import Scheduler
from .simulator import Envelope, LivenessError

__all__ = [
    "EXPECTATIONS",
    "ShapeSpec",
    "SweepSpec",
    "SweepCell",
    "SweepScheduler",
    "SimCluster",
    "expand_cells",
    "run_scenario_sim",
    "run_sweep",
    "smoke_spec",
    "nightly_spec",
    "write_markdown",
]

EXPECTATIONS = ("pass", "violation")

# Liveness bound for simulator probes, in delivery steps.  A probe that
# has not completed within this budget is declared stuck (the simulator
# has no wall clock; steps are its only notion of "too long").
PROBE_STEP_BOUND = 150_000

# Why the simulator refuses a scenario's ``reconfigs`` and a dealerless boot.
NO_RESHARING = (
    "scenario: the simulator backend cannot reconfigure or boot without a "
    "dealer — key generation and resharing run only in the TCP host until "
    "the ROADMAP's EpochMachine item lands"
)


# -- the grid spec ------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeSpec(_Spec):
    """One cluster shape: size, threshold, and the corrupted coalition.

    ``expect`` states the verdict the oracles must reach for every cell
    of this shape: ``"pass"`` for admissible configurations,
    ``"violation"`` for deliberately inadmissible ones (coalition
    exceeding ``t``) whose failure *proves the checkers can fire*.
    """

    what = "shape"

    n: int = 4
    t: int = 1
    byzantine: tuple[tuple[int, str], ...] = ()
    expect: str = "pass"

    @property
    def label(self) -> str:
        tag = f"n{self.n}t{self.t}"
        if self.byzantine:
            kinds = sorted({kind for _, kind in self.byzantine})
            if len(kinds) == 1:
                tag += f"+{len(self.byzantine)}{kinds[0]}"
            else:
                tag += f"+{len(self.byzantine)}({'+'.join(kinds)})"
        return tag

    def validate(self) -> None:
        _check_shape("shape", self.n, self.t, self.byzantine)
        _require(
            self.expect in EXPECTATIONS,
            f"shape: expect={self.expect!r} must be one of "
            f"{', '.join(EXPECTATIONS)}",
        )


@dataclass(frozen=True)
class SweepSpec(_Spec):
    """A declarative campaign: the grid axes and the TCP sample size.

    Shapes with ``expect="pass"`` expand to the full cartesian product
    over (faults x latencies x loads x seeds).  Shapes with
    ``expect="violation"`` pair only with the *first* value of each
    template axis, per seed — they exist to prove the oracle fires, not
    to cover the grid, so multiplying them across benign axes buys
    nothing.
    """

    what = "sweep"

    name: str
    shapes: tuple[ShapeSpec, ...]
    faults: tuple[str, ...] = ("clean",)
    latencies: tuple[str, ...] = ("none",)
    loads: tuple[str, ...] = ("serial",)
    seeds: tuple[int, ...] = (1,)
    tcp_cells: int = 0

    def validate(self) -> None:
        _require(bool(self.shapes), "sweep: at least one shape required")
        labels = [shape.label for shape in self.shapes]
        for i, label in enumerate(labels):
            first = labels.index(label)
            _require(first == i, f"sweep: shapes {self.shapes[first]} and {self.shapes[i]} "
                     f"share the label {label!r}, which keys their reports")
        for axis, values, known in (
            ("faults", self.faults, FAULT_TEMPLATES),
            ("latencies", self.latencies, LATENCY_TEMPLATES),
            ("loads", self.loads, LOAD_TEMPLATES),
        ):
            _require(bool(values), f"sweep: empty {axis} axis")
            for value in values:
                _require(
                    value in known,
                    f"sweep: unknown {axis} template {value!r} "
                    f"(expected one of {', '.join(known)})",
                )
        _require(bool(self.seeds), "sweep: empty seeds axis")
        _require(
            len(set(self.seeds)) == len(self.seeds),
            "sweep: duplicate seeds",
        )
        _require(
            self.tcp_cells >= 0,
            f"sweep: negative tcp_cells {self.tcp_cells}",
        )


@dataclass(frozen=True)
class SweepCell:
    """One concrete run: a scenario, the backend, and the expected
    verdict."""

    label: str
    backend: str  # "sim" | "tcp"
    expected: str
    scenario: Scenario


def expand_cells(spec: SweepSpec) -> list[SweepCell]:
    """Deterministically expand a grid into concrete cells.

    Simulator cells come first in grid order; the ``tcp_cells`` TCP
    re-runs (evenly sampled from the expected-pass simulator cells) are
    appended after them.
    """
    spec.validate()
    cells: list[SweepCell] = []
    for shape in spec.shapes:
        if shape.expect == "pass":
            combos = [
                (fault, latency, load)
                for fault in spec.faults
                for latency in spec.latencies
                for load in spec.loads
            ]
        else:
            combos = [(spec.faults[0], spec.latencies[0], spec.loads[0])]
        for fault, latency, load in combos:
            for seed in spec.seeds:
                name = f"sweep-{shape.label}-{fault}-{latency}-{load}"
                scenario = parameterize_scenario(
                    name,
                    n=shape.n,
                    t=shape.t,
                    seed=seed,
                    fault=fault,
                    latency=latency,
                    load=load,
                    byzantine=shape.byzantine,
                )
                cells.append(
                    SweepCell(
                        label=(
                            f"{shape.label}/{fault}/{latency}/{load}/s{seed}"
                        ),
                        backend="sim",
                        expected=shape.expect,
                        scenario=scenario,
                    )
                )
    if spec.tcp_cells:
        pool = [cell for cell in cells if cell.expected == "pass"]
        _require(
            bool(pool),
            "sweep: tcp_cells requested but no expected-pass cells to sample",
        )
        count = min(spec.tcp_cells, len(pool))
        picked: list[int] = []
        for i in range(count):
            index = round(i * (len(pool) - 1) / max(1, count - 1))
            if index not in picked:
                picked.append(index)
        for index in picked:
            cell = pool[index]
            cells.append(
                SweepCell(
                    label=f"tcp:{cell.label}",
                    backend="tcp",
                    expected=cell.expected,
                    scenario=cell.scenario,
                )
            )
    return cells


# -- the simulator fast path --------------------------------------------------------


class SweepScheduler(Scheduler):
    """Realizes a scenario's network-fault plan inside the simulator.

    The runner advances ``now`` (scenario seconds) at timeline
    boundaries; partitions block cut-crossing envelopes while active,
    ``suspended`` parties neither send nor receive effects (their
    traffic is postponed), and the scenario's frame-fault rates sum
    into a reorder pressure: with that probability the *newest* allowed
    envelope is delivered (adversarial LIFO), else a uniformly random
    one.  Returning ``None`` while only blocked traffic is pending
    reads as quiescence to ``Network.run`` — the runner resumes the
    postponed envelopes after advancing ``now`` past the heal.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.now = 0.0
        self.suspended: set[int] = set()
        faults = scenario.faults
        self.cuts = faults.partitions
        self.reorder = min(
            0.9,
            faults.reset_rate + faults.corrupt_rate + faults.duplicate_rate
            + faults.delay_rate + faults.hold_rate,
        )

    def _blocked(self, envelope: Envelope) -> bool:
        sender, recipient = envelope.sender, envelope.recipient
        if sender in self.suspended or recipient in self.suspended:
            return True
        for cut in self.cuts:  # a plain loop: this runs per pending envelope
            if cut.cuts(sender, recipient, self.now):
                return True
        return False

    def select(self, pending, rng):
        if not pending:
            return None
        allowed = [
            i for i, envelope in enumerate(pending)
            if not self._blocked(envelope)
        ]
        if not allowed:
            return None  # only blocked traffic: quiesce until `now` moves
        if self.reorder and rng.random() < self.reorder:
            return allowed[-1]
        return allowed[rng.randrange(len(allowed))]


class SimCluster:
    """``run_timeline``'s cluster on the in-process simulator: the
    clock counts delivery steps, a crash is ``network.crash`` and a
    fresh replica's rejoin, journals are ``on_execute`` hooks.  Nothing
    here suspends — the verbs are coroutines only because the one
    interpreter also drives real processes — and the network moves only
    inside ``advance_to``, ``next_reply``, ``settle`` and ``probe``."""

    backend = "sim"
    latency_unit = "steps"
    liveness_bound = float(PROBE_STEP_BOUND)

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.scheduler = SweepScheduler(scenario)
        abc_config = AbcConfig.overriding(
            max_batch=scenario.abc_max_batch,
            pipeline_depth=scenario.abc_pipeline_depth,
        )
        self.dep = dep = build_service(
            scenario.n, KeyValueStore, t=scenario.t, seed=scenario.seed,
            scheduler=self.scheduler, abc_config=abc_config,
        )
        self.network = dep.network
        self.byzantine = dict(scenario.byzantine)
        self.journal: dict[int, list[JournalEntry]] = {}
        for party in range(scenario.n):
            if party not in self.byzantine:
                self._observe(party)
        for party, kind in scenario.byzantine:
            node, _runtime, _replica = byzantine_node(
                kind, dep.network, party, dep.keys.public, dep.keys.private[party],
                seed=scenario.seed,
            )
            # unchecked: violation shapes deliberately exceed the structure.
            dep.controller.corrupt(dep.network, party, node, unchecked=True)
        self.client = dep.new_client()
        self.open: dict[int, Callable] = {}  # nonce -> completion callback
        self.network.start()

    def _observe(self, party: int) -> None:
        """Journal what ``party``'s current replica executes, from empty."""
        entries = self.journal[party] = []

        def hook(request, result, rnd: int) -> None:
            entries.append(
                JournalEntry(
                    request.client, request.nonce, tuple(request.operation), rnd
                )
            )

        self.dep.replicas[party].on_execute = hook

    def _run(self, max_steps: int, until: Callable | None = None) -> bool:
        """Deliver up to ``max_steps`` messages, or until ``until`` holds
        (False if it never did), then answer the calls that completed:
        a call's latency is read when the run stops."""
        try:
            self.network.run(max_steps=max_steps, until=until)
            reached = True
        except LivenessError:
            reached = False
        for nonce in [n for n in self.open if n in self.client.completed]:
            self.open.pop(nonce)(self.client.completed[nonce])
        return reached

    def clock(self) -> float:
        return float(self.network.delivered_count)

    async def advance_to(self, at: float) -> None:
        """The cluster acts for the scenario time that passes — 4000
        steps a second, at least 2000 — under the cuts in force before."""
        self._run(max(2000, int((at - self.scheduler.now) * 4000)))
        self.scheduler.now = max(at, self.scheduler.now)

    async def kill(self, party: int) -> None:
        self.network.crash(party)

    async def restart(self, party: int) -> None:
        # The journal restarts empty and is rebuilt by the replay
        # (on_execute fires on replays too).
        self.dep.rejoin(party, seed=self.scenario.seed + 7)
        if party not in self.byzantine:
            self._observe(party)

    async def suspend(self, party: int) -> None:
        self.scheduler.suspended.add(party)

    async def resume(self, party: int) -> None:
        self.scheduler.suspended.discard(party)

    async def corrupt_checkpoint(self, party: int) -> dict:
        # No checkpoint files in the simulator; recovery always replays
        # from peers, which is the checkpoint-rejection fallback path by
        # construction.
        return {"corrupted": False}

    async def reconfigure(self, action: str) -> tuple[int, tuple]:
        raise ScenarioError(NO_RESHARING)

    async def submit(self, operation: tuple, done: Callable) -> None:
        self.open[self.client.submit(operation)] = done

    async def next_reply(self) -> None:
        """Until a call in flight is answered; one the network cannot
        answer in ``OP_TIMEOUT`` of steps is given up on, oldest first."""
        completed = self.client.completed
        if not self._run(
            int(OP_TIMEOUT * 4000),
            lambda: any(nonce in completed for nonce in self.open),
        ):
            self.open.pop(min(self.open))(None)

    async def settle(self) -> None:
        """Nothing is held back any more: run to quiescence, so healed
        traffic has drained and rejoined replicas have replayed."""
        self.scheduler.suspended.clear()
        self._run(300_000)

    async def probe(self, operation: tuple) -> bool:
        nonce = self.client.submit(operation)
        return self._run(PROBE_STEP_BOUND, lambda: nonce in self.client.completed)

    async def close(self) -> None:
        pass

    def journals(self) -> dict[int, list[JournalEntry]]:
        return self.journal


def run_scenario_sim(scenario: Scenario) -> dict:
    """Execute a scenario on the in-process simulator.

    Deterministic function of the scenario (all randomness is seeded
    from it).  Returns the same report as the TCP journal written by
    ``chaos run`` — same interpreter, same checker verdicts, same
    summary extraction — with latencies counted in delivery steps
    rather than seconds.
    """
    scenario.validate()
    _require(not (scenario.reconfigs or scenario.dealerless), NO_RESHARING)
    return asyncio.run(run_timeline(scenario, SimCluster(scenario)))


def _sim_cell_worker(scenario_json: str) -> dict:
    """Worker-process entry point (module-level for picklability)."""
    return run_scenario_sim(Scenario.from_json(json.loads(scenario_json)))


# -- the TCP depth path -------------------------------------------------------------


def _run_tcp_cell(cell: SweepCell, workdir: pathlib.Path) -> dict:
    """Run one cell on the real subprocess TCP cluster via the chaos
    CLI — deliberately the same entry point CI uses, so the
    failure-JSON gate is exercised uniformly."""
    safe = _safe_name(cell.label)
    scenario_path = workdir / f"{safe}.scenario.json"
    journal_path = workdir / f"{safe}.journal.json"
    failure_path = workdir / f"{safe}.failure.json"
    scenario_path.write_text(json.dumps(cell.scenario.to_json(), indent=1))
    src_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "repro", "chaos", "run",
        "--scenario", str(scenario_path),
        "--journal", str(journal_path),
        "--failure-json", str(failure_path),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=600, env=env
        )
        stderr_tail = proc.stderr[-2000:]
    except subprocess.TimeoutExpired as exc:
        proc = None
        stderr_tail = f"timeout after {exc.timeout}s"
    if journal_path.exists():
        return json.loads(journal_path.read_text())
    # The run died before producing a journal: report it as a harness
    # error so the cell cannot silently count as covered.
    return {
        "scenario": cell.scenario.to_json(),
        "backend": "tcp",
        "latency_unit": "seconds",
        "events": [],
        "committed": 0,
        "safety": {"ok": False, "issues": [
            f"tcp run produced no journal: {stderr_tail}"
        ], "kinds": ["harness.error"]},
        "liveness": {"ok": True, "bound": 0.0, "probes": [], "issues": [],
                     "kinds": []},
        "ok": False,
    }


# -- aggregation and reporting ------------------------------------------------------


def _safe_name(label: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "._-" else "-" for ch in label
    )


def _cell_record(
    cell: SweepCell,
    report: dict,
    repro_dir: pathlib.Path | None,
) -> dict:
    outcome = "pass" if report.get("ok") else "violation"
    record = {
        "cell": cell.label,
        "backend": cell.backend,
        "scenario": cell.scenario.name,
        "seed": cell.scenario.seed,
        "expected": cell.expected,
        "outcome": outcome,
        "matched": outcome == cell.expected,
        "violations": violation_kinds(report),
        "summary": summarize_run(report),
        "repro": None,
    }
    if outcome == "violation" and repro_dir is not None:
        repro_dir.mkdir(parents=True, exist_ok=True)
        bundle_path = repro_dir / f"{_safe_name(cell.label)}.json"
        # Self-contained: `chaos replay --journal <bundle>` re-derives
        # the timeline from the scenario+seed and must match verbatim
        # (extra keys are ignored by the replayer).
        bundle = {
            "cell": cell.label,
            "backend": cell.backend,
            "expected": cell.expected,
            "violations": record["violations"],
            "scenario": cell.scenario.to_json(),
            "timeline": plan_timeline(cell.scenario),
        }
        bundle_path.write_text(json.dumps(bundle, indent=1))
        record["repro"] = str(bundle_path)
    return record


def aggregate(spec: SweepSpec, records: list[dict]) -> dict:
    """The schema-stable SWEEP.json payload."""
    by_violation: dict[str, int] = {}
    for record in records:
        for kind in record["violations"]:
            by_violation[kind] = by_violation.get(kind, 0) + 1
    return {
        "schema": 1,
        "name": spec.name,
        "spec": spec.to_json(),
        "axes": {
            "shapes": [shape.label for shape in spec.shapes],
            "faults": list(spec.faults),
            "latencies": list(spec.latencies),
            "loads": list(spec.loads),
            "seeds": list(spec.seeds),
        },
        "runs": records,
        "totals": {
            "runs": len(records),
            "sim": sum(1 for r in records if r["backend"] == "sim"),
            "tcp": sum(1 for r in records if r["backend"] == "tcp"),
            "passed": sum(1 for r in records if r["outcome"] == "pass"),
            "violations": sum(
                1 for r in records if r["outcome"] == "violation"
            ),
            "expected_violations": sum(
                1 for r in records
                if r["outcome"] == "violation" and r["matched"]
            ),
            "mismatched": sum(1 for r in records if not r["matched"]),
            "by_violation": dict(sorted(by_violation.items())),
        },
    }


def write_markdown(payload: dict, path: str | pathlib.Path) -> None:
    """Render the sweep report as a human-readable markdown table."""
    totals = payload["totals"]
    lines = [
        f"# Sweep report: {payload['name']}",
        "",
        f"{totals['runs']} runs ({totals['sim']} simulator, "
        f"{totals['tcp']} TCP) — {totals['passed']} passed, "
        f"{totals['violations']} violations "
        f"({totals['expected_violations']} expected), "
        f"{totals['mismatched']} cells mismatched their expectation.",
        "",
        "Axes: shapes " + ", ".join(f"`{s}`" for s in payload["axes"]["shapes"])
        + "; faults " + ", ".join(payload["axes"]["faults"])
        + "; latencies " + ", ".join(payload["axes"]["latencies"])
        + "; loads " + ", ".join(payload["axes"]["loads"])
        + "; seeds " + ", ".join(str(s) for s in payload["axes"]["seeds"])
        + ".",
        "",
        "| cell | backend | expected | outcome | committed | rounds/commit "
        "| p50 | violations |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for record in payload["runs"]:
        summary = record["summary"]
        p50 = summary.get("latency_p50")
        unit = "s" if summary.get("latency_unit") == "seconds" else " steps"
        p50_text = "—" if p50 is None else f"{p50:g}{unit}"
        rounds = summary.get("rounds_per_commit")
        rounds_text = "—" if rounds is None else f"{rounds:.2f}"
        marker = "" if record["matched"] else " ⚠"
        lines.append(
            f"| `{record['cell']}` | {record['backend']} "
            f"| {record['expected']} | {record['outcome']}{marker} "
            f"| {summary.get('committed', 0)} | {rounds_text} | {p50_text} "
            f"| {', '.join(record['violations']) or '—'} |"
        )
    if totals["by_violation"]:
        lines += ["", "Violation kinds: " + ", ".join(
            f"`{kind}` ×{count}"
            for kind, count in totals["by_violation"].items()
        ) + "."]
    lines.append("")
    pathlib.Path(path).write_text("\n".join(lines))


# -- campaign drivers ---------------------------------------------------------------


def smoke_spec() -> SweepSpec:
    """The PR-gate grid: ≥20 seeded runs across shape, fault, latency
    and seed axes in a few minutes, including one coalition that must
    trip the liveness oracle (t exceeded) and one TCP depth cell."""
    return SweepSpec(
        name="smoke",
        shapes=(
            ShapeSpec(n=4, t=1),
            ShapeSpec(n=4, t=1, byzantine=((3, "silent"),)),
            ShapeSpec(
                n=4,
                t=1,
                byzantine=((2, "silent"), (3, "silent")),
                expect="violation",
            ),
        ),
        faults=("clean", "duplicating"),
        latencies=("none", "jitter"),
        loads=("serial",),
        seeds=(101, 102, 103),
        tcp_cells=1,
    )


def nightly_spec() -> SweepSpec:
    """The nightly campaign: a medium grid (hundreds of simulator runs
    plus a TCP-cluster sample) covering every fault template, byzantine
    behaviors within and beyond the threshold, and a larger cluster."""
    return SweepSpec(
        name="nightly",
        shapes=(
            ShapeSpec(n=4, t=1),
            ShapeSpec(n=4, t=1, byzantine=((3, "silent"),)),
            ShapeSpec(n=4, t=1, byzantine=((3, "equivocate"),)),
            ShapeSpec(n=7, t=2),
            ShapeSpec(
                n=4,
                t=1,
                byzantine=((2, "silent"), (3, "silent")),
                expect="violation",
            ),
        ),
        faults=("clean", "duplicating", "partition", "churn"),
        latencies=("none", "jitter", "heavy"),
        loads=("serial", "pipelined"),
        seeds=(11, 12),
        tcp_cells=6,
    )


def run_sweep(
    spec: SweepSpec,
    out: str | pathlib.Path = "SWEEP.json",
    markdown: str | pathlib.Path | None = None,
    repro_dir: str | pathlib.Path | None = None,
    workers: int | None = None,
    tcp_override: int | None = None,
) -> int:
    """Expand, execute and aggregate a campaign.

    Returns 0 iff *every* cell's outcome matches its expectation —
    expected violations must fire (the oracle self-test) and expected
    passes must pass.  ``tcp_override`` replaces the spec's TCP sample
    size (0 disables TCP entirely, e.g. in sandboxed environments).
    """
    if tcp_override is not None:
        spec = replace(spec, tcp_cells=tcp_override)
    cells = expand_cells(spec)
    sim_cells = [cell for cell in cells if cell.backend == "sim"]
    tcp_cells = [cell for cell in cells if cell.backend == "tcp"]
    print(
        f"sweep[{spec.name}]: {len(sim_cells)} simulator cells, "
        f"{len(tcp_cells)} tcp cells"
    )

    reports: dict[str, dict] = {}
    if workers is None:
        workers = max(2, min(8, (os.cpu_count() or 2) - 1))
    if workers <= 1 or len(sim_cells) <= 1:
        for cell in sim_cells:
            reports[cell.label] = run_scenario_sim(cell.scenario)
            print(_progress_line(spec, cell, reports[cell.label]))
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            futures = {
                pool.submit(
                    _sim_cell_worker, json.dumps(cell.scenario.to_json())
                ): cell
                for cell in sim_cells
            }
            for future in concurrent.futures.as_completed(futures):
                cell = futures[future]
                reports[cell.label] = future.result()
                print(_progress_line(spec, cell, reports[cell.label]))

    if tcp_cells:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-tcp-") as tmp:
            for cell in tcp_cells:  # serial: each spawns a full cluster
                reports[cell.label] = _run_tcp_cell(cell, pathlib.Path(tmp))
                print(_progress_line(spec, cell, reports[cell.label]))

    repro_path = pathlib.Path(repro_dir) if repro_dir is not None else None
    records = [
        _cell_record(cell, reports[cell.label], repro_path) for cell in cells
    ]
    payload = aggregate(spec, records)
    pathlib.Path(out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"sweep[{spec.name}]: report written to {out}")
    if markdown is not None:
        write_markdown(payload, markdown)
        print(f"sweep[{spec.name}]: markdown written to {markdown}")
    totals = payload["totals"]
    mismatched = [record for record in records if not record["matched"]]
    for record in mismatched:
        print(
            f"sweep[{spec.name}]: MISMATCH {record['cell']}: expected "
            f"{record['expected']}, got {record['outcome']} "
            f"({', '.join(record['violations']) or 'no violations'})"
            + (f" — repro: {record['repro']}" if record["repro"] else "")
        )
    print(
        f"sweep[{spec.name}]: {totals['runs']} runs, "
        f"{totals['passed']} passed, {totals['violations']} violations "
        f"({totals['expected_violations']} expected), "
        f"{totals['mismatched']} mismatched"
    )
    return 0 if not mismatched else 1


def _progress_line(spec: SweepSpec, cell: SweepCell, report: dict) -> str:
    verdict = "ok" if report.get("ok") else "VIOLATION"
    return (
        f"sweep[{spec.name}]: {cell.label} [{cell.backend}] -> {verdict} "
        f"(committed={report.get('committed', 0)}, expected={cell.expected})"
    )
