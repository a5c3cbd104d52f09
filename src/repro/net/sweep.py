"""Grid-driven chaos campaigns: the scenario-coverage engine.

One chaos scenario probes one point of the fault space; the paper's
claims are quantified over *all* admissible adversaries.  A sweep runs a
declarative grid (:class:`SweepSpec`): cluster shapes (:class:`ShapeSpec`,
``n``/``t`` and a corrupted coalition — an inadmissible one is expected
to trip an oracle, so the sweep self-tests the checkers) × the named
fault, latency and load templates of :mod:`repro.net.chaos` × seeds.
Each cell is a :class:`~repro.net.chaos.Scenario`
(:func:`~repro.net.chaos.parameterize_scenario`) and every run is a
deterministic function of it.

The **simulator** (:func:`run_scenario_sim`) is the breadth path: n
hosts (:class:`~repro.net.runtime.ReplicaHost`, the deployed server,
its files in one temporary directory per cell) on the discrete-event
network, under a scheduler that realizes the scenario's partitions,
suspensions and reorder pressure.  Frame-level faults live below the
simulated channels (reliable and authenticated by construction), so
their rates become *reorder pressure* (adversarial LIFO preference),
the consequence the protocols must tolerate.  A sampled subset re-runs
on **TCP** (:func:`~repro.net.chaos.run_tcp`, the run ``chaos run``
makes) for the byte-level machinery.  Both are judged by the same
:mod:`repro.net.checkers` oracles; results aggregate into a
schema-stable ``SWEEP.json`` and a markdown table, and a violating
cell leaves a repro bundle that ``chaos replay`` checks and ``chaos run
--scenario`` runs again.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import pathlib
import random
import tempfile
import traceback
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..crypto.dealer import CLIENT_BASE
from ..smr.client import ServiceClient
from .chaos import (
    FAULT_TEMPLATES,
    LATENCY_TEMPLATES,
    LOAD_TEMPLATES,
    OP_TIMEOUT,
    Scenario,
    _check_shape,
    _Cluster,
    _require,
    _Spec,
    parameterize_scenario,
    plan_timeline,
    run_tcp,
    run_timeline,
)
from .checkers import summarize_run, violation_kinds
from .runtime import ReplicaHost, current_membership, find_event
from .scheduler import Scheduler
from .simulator import STEPS_PER_SECOND, Envelope, LivenessError, Network
from .transport import TransportError

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


class _SimReplica:
    """A host on the cell's network, as the cluster waits on, stops and
    kills a replica process."""

    def __init__(self, cluster: "SimCluster", host: ReplicaHost) -> None:
        self.cluster = cluster
        self.host = host
        self.party = host.party
        self.events = host.events

    async def wait_for(self, kind: str | tuple[str, ...], **match: object) -> dict:
        """Run the network until the host has said ``kind`` with ``match``,
        for at most ``io_timeout`` of steps (else TransportError)."""
        steps = int(self.host.io_timeout * STEPS_PER_SECOND)
        if not self.cluster._run(steps, lambda: find_event(self.events, kind, **match)):
            raise TransportError(f"replica {self.party} never said {kind} {match}")
        return find_event(self.events, kind, **match)

    async def kill(self) -> None:
        self.cluster.network.crash(self.party)
        await self.host.close()

    stop = kill  # only a departed member is stopped, and nothing reads it again


class SimCluster(_Cluster):
    """``run_timeline``'s cluster on the in-process simulator: n hosts on
    one simulated network whose clock counts delivery steps.  Nothing
    here suspends (the verbs are coroutines for the one interpreter);
    the network moves only inside ``advance_to``, ``next_reply``,
    ``settle``, ``probe`` and a replica's ``wait_for``."""

    backend = "sim"
    latency_unit = "steps"
    liveness_bound = float(PROBE_STEP_BOUND)

    @staticmethod
    def _addresses(parties: list[int]) -> dict[int, tuple[str, int]]:
        """Fixed ports: no socket is bound, and an ``add`` says the same each run."""
        return {party: ("127.0.0.1", 20_000 + party) for party in parties}

    def __init__(self, scenario: Scenario, workdir: pathlib.Path) -> None:
        super().__init__(scenario, workdir)
        self.scheduler = SweepScheduler(scenario)
        self.network = Network(self.scheduler, random.Random(scenario.seed + 1))
        self.open: dict[int, Callable] = {}  # nonce -> completion callback

    async def _spawn(self, parties, recover: bool = False) -> dict[int, _SimReplica]:
        """What ``run-replica`` does, as hosts here."""
        replicas = {}
        for party in parties:
            host = ReplicaHost(
                self.workdir, party, network=self.network,
                byzantine=self.byzantine.get(party), journal=True,
                checkpoint_every=self.scenario.checkpoint_every,
            )
            await host.start(recover=recover)
            replicas[party] = _SimReplica(self, host)
        return replicas

    async def _attach(self) -> ServiceClient:
        epoch, public = current_membership(self.workdir)
        rng = random.Random(self.scenario.seed + 99)
        client = ServiceClient(CLIENT_BASE, self.network, public, rng, epoch)
        self.network.attach(CLIENT_BASE, client)
        return client

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
        """The cluster acts for the scenario time that passes — at least
        half a second's steps — under the cuts in force before."""
        steps = (at - self.scheduler.now) * STEPS_PER_SECOND
        self._run(int(max(STEPS_PER_SECOND / 2, steps)))
        self.scheduler.now = max(at, self.scheduler.now)

    async def suspend(self, party: int) -> None:
        self.scheduler.suspended.add(party)

    async def resume(self, party: int) -> None:
        self.scheduler.suspended.discard(party)

    async def submit(self, operation: tuple, done: Callable) -> None:
        self.open[self.client.submit(operation)] = done

    async def next_reply(self) -> None:
        """Until a call in flight is answered; one the network cannot
        answer in ``OP_TIMEOUT`` of steps is given up on, oldest first."""
        completed = self.client.completed
        if not self._run(
            int(OP_TIMEOUT * STEPS_PER_SECOND),
            lambda: any(nonce in completed for nonce in self.open),
        ):
            self.open.pop(min(self.open))(None)

    async def settle(self) -> None:
        """Nothing is held back any more: run to quiescence, so healed
        traffic has drained and restarted replicas have replayed."""
        self.scheduler.suspended.clear()
        self._run(300_000)

    async def probe(self, operation: tuple) -> bool:
        nonce = self.client.submit(operation)
        return self._run(PROBE_STEP_BOUND, lambda: nonce in self.client.completed)

    async def close(self) -> None:
        for replica in self.replicas.values():
            await replica.kill()


def run_scenario_sim(scenario: Scenario) -> dict:
    """Execute a scenario on the in-process simulator.

    Deterministic function of the scenario (all randomness is seeded
    from it).  Returns the same report as the TCP journal written by
    ``chaos run`` — same interpreter, same checker verdicts, same
    summary extraction — with latencies counted in delivery steps
    rather than seconds.  The cell's files live in a temporary
    directory, removed afterwards.
    """
    scenario.validate()

    async def run(workdir: pathlib.Path) -> dict:
        return await run_timeline(scenario, await SimCluster.boot(scenario, workdir))

    with tempfile.TemporaryDirectory(prefix="repro-sim-") as workdir:
        return asyncio.run(run(pathlib.Path(workdir)))


def _sim_cell_worker(scenario_json: str) -> dict:
    """Worker-process entry point (module-level for picklability)."""
    return run_scenario_sim(Scenario.from_json(json.loads(scenario_json)))


# -- the TCP depth path -------------------------------------------------------------


def _run_tcp_cell(cell: SweepCell) -> dict:
    """Run one cell on a TCP cluster of replica processes
    (:func:`~repro.net.chaos.run_tcp`, the run ``chaos run`` makes).
    A run that raises is reported as a harness error, so the cell
    cannot silently count as covered."""
    try:
        return run_tcp(cell.scenario)
    except Exception as exc:
        traceback.print_exc()
        return {
            "scenario": cell.scenario.to_json(),
            "backend": "tcp",
            "latency_unit": "seconds",
            "events": [],
            "committed": 0,
            "safety": {"ok": False, "issues": [
                f"tcp run raised {type(exc).__name__}: {exc}"
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

    for cell in tcp_cells:  # serial: each spawns a full cluster
        reports[cell.label] = _run_tcp_cell(cell)
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
