"""Seeded chaos engine: scenarios, their one interpreter, two clusters.

A scenario (:class:`Scenario`) is a declarative spec — cluster shape,
seed, a fault plan, a process-lifecycle schedule, which parties run
Byzantine, a client workload, reconfigurations — whose whole fault
schedule is a deterministic function of its seed.
:func:`run_timeline` interprets it on a cluster of replica hosts, on
TCP (:class:`TcpCluster`, ``run-replica`` processes; :func:`run_tcp`)
or on the simulator (:class:`repro.net.sweep.SimCluster`), and judges
the run by the checkers of :mod:`repro.net.checkers`: safety (honest
executed logs stay prefix-consistent and no committed operation is
lost, across kills, restarts and corrupted checkpoints), liveness
(probes in the quiescent window complete within a bound) and the
reconfigurations' verdicts.  Faults compose in three layers: the
network (:class:`SeededFaultPlan`: partitions that heal, per-link
resets, corruption, duplication, delays and reordering holds, each
link's stream seeded from ``(seed, salt, sender, recipient)`` so every
process derives the same plan from ``faults.json``), the process
lifecycle (kill, suspend, restart with ``--recover``, a corrupted
checkpoint that the restart must reject), and Byzantine parties, each
started corrupted (:func:`repro.net.attacks.byzantine_node` over its
host's own stack).  ``python -m repro chaos run --scenario <name|file>``
runs one on TCP; ``chaos replay --journal <file>`` re-derives a
recorded timeline and checks it is identical.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, get_args, get_origin, get_type_hints

from ..crypto.dealer import CLIENT_BASE
from ..smr import reconfig
from .attacks import BYZANTINE_KINDS
from .checkers import (
    JournalEntry,
    check_liveness,
    check_reconfigs,
    check_safety,
    opened_epochs,
    read_journals,
    violation_kinds,
)
from .cluster import admit_joiner, attach_client, deal_deployment, spawn_replicas
from .runtime import (
    FAULTS_FILE,
    HostState,
    allocate_addresses,
    current_membership,
    identity_key,
    provision_dkg_deployment,
    state_path,
)
from .transport import FaultPlan, FrameFault, TransportError

__all__ = [
    "FAULTS_FILE",
    "FAULT_TEMPLATES",
    "LATENCY_TEMPLATES",
    "LIFECYCLE_ACTIONS",
    "LOAD_TEMPLATES",
    "PartitionSpec",
    "FaultSpec",
    "ScenarioError",
    "SeededFaultPlan",
    "save_fault_plan",
    "load_fault_plan",
    "LifecycleEvent",
    "Scenario",
    "builtin_scenarios",
    "failure_record",
    "fault_template",
    "latency_template",
    "load_template",
    "parameterize_scenario",
    "plan_timeline",
    "corrupt_checkpoint",
    "run_timeline",
    "TcpCluster",
    "run_tcp",
    "record_run",
    "replay_journal",
]

DEFAULT_JOURNAL = "chaos-journal.json"

# Seconds a client op may take before the run records it as timed out
# (the simulator gives it OP_TIMEOUT * STEPS_PER_SECOND delivery steps); seconds a
# liveness probe may take on TCP; how many probes follow the workload.
OP_TIMEOUT = 30.0
LIVENESS_BOUND = 20.0
LIVENESS_PROBES = 2

LIFECYCLE_ACTIONS = ("kill", "restart", "suspend", "resume", "corrupt-checkpoint")


class ScenarioError(ValueError):
    """A declarative spec (scenario, fault plan, sweep grid) is malformed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _check_shape(
    what: str, n: int, t: int, byzantine: tuple[tuple[int, str], ...]
) -> None:
    """The cluster-shape rules a scenario and a sweep shape share."""
    _require(n >= 1, f"{what}: n={n} must be at least 1")
    _require(0 <= t < n, f"{what}: t={t} must satisfy 0 <= t < n={n}")
    seen: set[int] = set()
    for party, kind in byzantine:
        _require(
            0 <= party < n, f"{what}: byzantine party {party} outside 0..{n - 1}"
        )
        _require(
            kind in BYZANTINE_KINDS,
            f"{what}: unknown byzantine kind {kind!r} "
            f"(expected one of {', '.join(BYZANTINE_KINDS)})",
        )
        _require(party not in seen, f"{what}: party {party} corrupted twice")
        seen.add(party)


def _plain(value: object) -> object:
    """A spec field as plain JSON types (tuples become lists)."""
    if isinstance(value, _Spec):
        return value.to_json()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _coerce(hint: Any, value: Any) -> Any:
    """``value`` (plain JSON) as the field type ``hint`` says; raises
    TypeError/ValueError on a value of the wrong shape."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return tuple(_coerce(args[0], item) for item in value)
        items = tuple(value)
        if len(items) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(items)}")
        return tuple(_coerce(arg, item) for arg, item in zip(args, items))
    if args:  # ``int | None``
        return None if value is None else _coerce(args[0], value)
    if issubclass(hint, _Spec):
        return hint.from_json(value)
    return hint(value)


class _Spec:
    """Base of the declarative spec dataclasses: the dataclass field
    list is the only statement of a spec's keys, types and defaults.
    ``to_json`` renders it, ``from_json`` parses it back and then runs
    the class's ``validate`` (:class:`ScenarioError` on the first rule
    broken)."""

    what = "spec"  # how error messages name the class

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict):
        """Strict: specs gate CI runs, so a typo must fail loudly
        instead of silently running a different scenario than the one
        written."""
        hints = get_type_hints(cls)
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        _require(
            not unknown,
            f"{cls.what}: unknown key(s) {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(defaults))})",
        )
        for name, default in defaults.items():
            _require(
                name in data or default is not MISSING, f"{cls.what}: missing {name}"
            )
        values = {}
        for name, value in data.items():
            try:
                values[name] = _coerce(hints[name], value)
            except ScenarioError:
                raise
            except (TypeError, ValueError) as exc:
                # Names the field: a journal of an older build fails here.
                raise ScenarioError(f"{cls.what}: {name}: {exc!r}") from exc
        spec = cls(**values)
        spec.validate()
        return spec


# -- declarative fault plans --------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec(_Spec):
    """A bidirectional cut between ``group`` and everyone else, active
    on ``[start, stop)`` seconds after the run epoch, healing itself."""

    what = "partition"

    start: float
    stop: float
    group: tuple[int, ...]

    def validate(self) -> None:
        _require(self.start >= 0.0, f"partition: negative start {self.start}")
        _require(
            self.stop > self.start,
            f"partition: stop {self.stop} must be after start {self.start}",
        )
        _require(bool(self.group), "partition: empty group cuts nothing")

    def cuts(self, sender: int, recipient: int, now: float) -> bool:
        """Whether the link is severed ``now`` seconds into the run."""
        return self.start <= now < self.stop and (
            (sender in self.group) != (recipient in self.group)
        )


@dataclass(frozen=True)
class FaultSpec(_Spec):
    """Probabilistic per-frame faults plus scheduled partitions.

    Rates are per data-frame write and cascade in the order reset →
    corrupt → duplicate → delay; ``hold_rate`` applies per payload
    *before* sequencing (the reorder mechanism).
    """

    what = "faults"

    reset_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: float = 0.05
    hold_rate: float = 0.0
    max_hold: float = 0.2
    partitions: tuple[PartitionSpec, ...] = ()

    def validate(self) -> None:
        for name in ("reset_rate", "corrupt_rate", "duplicate_rate",
                     "delay_rate", "hold_rate"):
            rate = getattr(self, name)
            _require(
                0.0 <= rate <= 1.0,
                f"faults: {name}={rate} must be a probability in [0, 1]",
            )
        _require(self.max_delay >= 0.0, f"faults: negative max_delay {self.max_delay}")
        _require(self.max_hold >= 0.0, f"faults: negative max_hold {self.max_hold}")


class SeededFaultPlan(FaultPlan):
    """A :class:`FaultSpec` realized as deterministic per-link streams.

    Every (sender, recipient) link draws its frame/hold decisions from
    ``random.Random(hash((seed, salt, sender, recipient)))`` — tuple-of-
    int hashing is stable across processes (``PYTHONHASHSEED`` only
    randomizes str/bytes), so each replica process independently derives
    the *same* stream for its side of each link.  Partition windows are
    anchored to a shared wall-clock ``epoch`` (recorded in
    ``faults.json``) so separately started processes agree, coarsely,
    on when a cut is active; when no epoch is given, :meth:`start`
    anchors to the local clock (in-process tests).
    """

    _FRAME_SALT = 1
    _HOLD_SALT = 2

    def __init__(
        self, spec: FaultSpec, seed: int, epoch: float | None = None
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.epoch = epoch
        self._frame_rngs: dict[tuple[int, int], random.Random] = {}
        self._hold_rngs: dict[tuple[int, int], random.Random] = {}

    def start(self) -> None:
        if self.epoch is None:
            self.epoch = time.time()

    def _elapsed(self) -> float:
        if self.epoch is None:
            return 0.0
        return time.time() - self.epoch

    def _stream(
        self,
        table: dict[tuple[int, int], random.Random],
        salt: int,
        sender: int,
        recipient: int,
    ) -> random.Random:
        rng = table.get((sender, recipient))
        if rng is None:
            rng = random.Random(hash((self.seed, salt, sender, recipient)))
            table[(sender, recipient)] = rng
        return rng

    def link_up(self, sender: int, recipient: int) -> bool:
        now = self._elapsed()
        return not any(
            cut.cuts(sender, recipient, now) for cut in self.spec.partitions
        )

    def frame_fault(self, sender: int, recipient: int) -> FrameFault:
        spec = self.spec
        if not (
            spec.reset_rate or spec.corrupt_rate
            or spec.duplicate_rate or spec.delay_rate
        ):
            return FrameFault()
        rng = self._stream(self._frame_rngs, self._FRAME_SALT, sender, recipient)
        draw = rng.random()
        if draw < spec.reset_rate:
            return FrameFault("reset")
        draw -= spec.reset_rate
        if draw < spec.corrupt_rate:
            return FrameFault("corrupt")
        draw -= spec.corrupt_rate
        if draw < spec.duplicate_rate:
            return FrameFault("duplicate")
        draw -= spec.duplicate_rate
        if draw < spec.delay_rate:
            return FrameFault("pass", delay=rng.random() * spec.max_delay)
        return FrameFault()

    def send_hold(self, sender: int, recipient: int) -> float:
        spec = self.spec
        if not spec.hold_rate:
            return 0.0
        rng = self._stream(self._hold_rngs, self._HOLD_SALT, sender, recipient)
        if rng.random() < spec.hold_rate:
            return rng.random() * spec.max_hold
        return 0.0


def save_fault_plan(
    directory: str | pathlib.Path, spec: FaultSpec, seed: int
) -> float:
    """Serialize the plan for subprocess replicas; returns the epoch
    every process (and the orchestrator's own timeline) anchors to."""
    epoch = time.time()
    path = pathlib.Path(directory) / FAULTS_FILE
    path.write_text(
        json.dumps({"seed": seed, "epoch": epoch, "spec": spec.to_json()})
    )
    return epoch


def load_fault_plan(directory: str | pathlib.Path) -> SeededFaultPlan | None:
    """Load ``faults.json`` if the deployment has one (``None`` = no
    chaos; the transport then uses its no-op default plan)."""
    path = pathlib.Path(directory) / FAULTS_FILE
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return SeededFaultPlan(
        FaultSpec.from_json(data["spec"]),
        seed=int(data["seed"]),
        epoch=float(data["epoch"]),
    )


# -- scenarios ----------------------------------------------------------------------


@dataclass(frozen=True)
class LifecycleEvent(_Spec):
    """One scheduled process fault, ``at`` seconds after the run epoch."""

    what = "event"

    at: float
    action: str  # one of LIFECYCLE_ACTIONS
    party: int

    def validate(self) -> None:
        _require(self.at >= 0.0, f"event: negative time {self.at}")
        _require(
            self.action in LIFECYCLE_ACTIONS,
            f"event: unknown action {self.action!r} "
            f"(expected one of {', '.join(LIFECYCLE_ACTIONS)})",
        )
        _require(self.party >= 0, f"event: negative party {self.party}")


@dataclass(frozen=True)
class Scenario(_Spec):
    """A complete declarative chaos run.

    All times are seconds after the run epoch (the moment the fault
    plan is saved, before replicas spawn) — schedule the first activity
    late enough (builtins use >= 2s) for the cluster to come up.
    """

    what = "scenario"

    name: str
    n: int = 4
    t: int = 1
    seed: int = 0
    ops: int = 6
    faults: FaultSpec = FaultSpec()
    events: tuple[LifecycleEvent, ...] = ()
    byzantine: tuple[tuple[int, str], ...] = ()
    io_timeout: float = 45.0
    checkpoint_every: int = 2
    workload_start: float = 2.0
    # Workload shape: how many client operations may be in flight at
    # once (1 = the original closed loop).  >1 exercises batching and
    # pipelining in the replicas.
    op_concurrency: int = 1
    # Optional atomic-broadcast knobs for the cluster (None = protocol
    # defaults); see docs/PERFORMANCE.md.
    abc_max_batch: int | None = None
    abc_pipeline_depth: int | None = None
    # ``(at, action)``: a signed Reconfigure(action) — one of
    # ``reconfig.ACTIONS`` — ordered through the live cluster at ``at``.
    # Each reshares every threshold key and opens the next epoch
    # mid-workload, so lifecycle events scheduled around these instants
    # exercise kills *during* resharing and restarts into a
    # configuration the crashed replica has never seen.  ``add`` admits
    # the next id, ``remove`` retires the highest one.
    reconfigs: tuple[tuple[float, str], ...] = ()
    # Boot by distributed key generation instead of the trusted dealer.
    dealerless: bool = False

    def validate(self) -> None:
        """Structural sanity for specs that reach the run/sweep layer;
        raises :class:`ScenarioError` on the first violation."""
        _check_shape("scenario", self.n, self.t, self.byzantine)
        _require(self.ops >= 0, f"scenario: negative ops {self.ops}")
        _require(
            self.op_concurrency >= 1,
            f"scenario: op_concurrency={self.op_concurrency} must be >= 1",
        )
        _require(
            self.io_timeout > 0.0,
            f"scenario: io_timeout={self.io_timeout} must be positive",
        )
        _require(
            self.checkpoint_every >= 1,
            f"scenario: checkpoint_every={self.checkpoint_every} must be >= 1",
        )
        _require(
            self.workload_start >= 0.0,
            f"scenario: negative workload_start {self.workload_start}",
        )
        for knob, value in (
            ("abc_max_batch", self.abc_max_batch),
            ("abc_pipeline_depth", self.abc_pipeline_depth),
        ):
            _require(
                value is None or value >= 1,
                f"scenario: {knob}={value} must be >= 1",
            )
        for event in self.events:
            _require(
                0 <= event.party < self.n,
                f"scenario: event party {event.party} outside 0..{self.n - 1}",
            )
        for at, action in self.reconfigs:
            _require(at >= 0.0, f"scenario: negative reconfig time {at}")
            _require(
                action in reconfig.ACTIONS,
                f"scenario: unknown reconfig action {action!r} "
                f"(expected one of {', '.join(reconfig.ACTIONS)})",
            )
        # A corrupted party has no way to run the key generation.
        _require(
            not (self.dealerless and self.byzantine),
            "scenario: a dealerless boot cannot have byzantine parties",
        )
        for cut in self.faults.partitions:
            for party in cut.group:
                _require(
                    0 <= party < self.n,
                    f"scenario: partition party {party} outside 0..{self.n - 1}",
                )


def builtin_scenarios() -> dict[str, Scenario]:
    """The named scenarios ``repro chaos run --scenario`` accepts."""
    partition_heal = Scenario(
        name="partition-heal",
        seed=1101,
        ops=6,
        faults=FaultSpec(
            duplicate_rate=0.05,
            hold_rate=0.15,
            max_hold=0.1,
            partitions=(PartitionSpec(start=2.6, stop=4.6, group=(3,)),),
        ),
    )
    kill_recover = Scenario(
        name="kill-recover",
        seed=2202,
        ops=8,
        faults=FaultSpec(reset_rate=0.02),
        events=(
            LifecycleEvent(at=3.4, action="kill", party=2),
            LifecycleEvent(at=3.6, action="corrupt-checkpoint", party=2),
            LifecycleEvent(at=4.4, action="restart", party=2),
        ),
    )
    stall = Scenario(
        name="stall",
        seed=4404,
        ops=6,
        events=(
            LifecycleEvent(at=2.8, action="suspend", party=1),
            LifecycleEvent(at=4.2, action="resume", party=1),
        ),
    )
    torture = Scenario(
        name="torture",
        seed=3303,
        ops=8,
        byzantine=((3, "equivocate"),),
        faults=FaultSpec(
            reset_rate=0.02,
            corrupt_rate=0.02,
            duplicate_rate=0.05,
            delay_rate=0.1,
            max_delay=0.02,
            hold_rate=0.1,
            max_hold=0.1,
            partitions=(PartitionSpec(start=2.6, stop=4.0, group=(1,)),),
        ),
        events=(
            LifecycleEvent(at=4.6, action="kill", party=2),
            LifecycleEvent(at=5.6, action="restart", party=2),
        ),
        checkpoint_every=3,
    )
    pipeline_load = Scenario(
        name="pipeline-load",
        seed=5505,
        ops=12,
        op_concurrency=4,
        abc_max_batch=8,
        abc_pipeline_depth=3,
        faults=FaultSpec(duplicate_rate=0.05),
        events=(
            LifecycleEvent(at=3.0, action="kill", party=2),
            LifecycleEvent(at=4.0, action="restart", party=2),
        ),
    )
    # Regression scenario for superseded inbound channels: back-to-back
    # kill/restart cycles under a steady reset_rate force every peer to
    # accept a *new* connection from the restarted replica while the
    # old one may still be open.  The transport must drop the stale
    # connection (not feed its frames through orphaned replay
    # bookkeeping) for replies to keep flowing.
    reconnect_churn = Scenario(
        name="reconnect-churn",
        seed=6606,
        ops=8,
        faults=FaultSpec(reset_rate=0.06),
        events=(
            LifecycleEvent(at=2.8, action="kill", party=2),
            LifecycleEvent(at=3.2, action="restart", party=2),
            LifecycleEvent(at=4.2, action="kill", party=2),
            LifecycleEvent(at=4.6, action="restart", party=2),
        ),
    )
    # Live reconfiguration under churn: a Reconfigure(refresh) is
    # ordered mid-workload, party 2 is killed while the resharing it
    # triggers is in flight and restarted before the epoch boundary
    # (recovery replays the committed reconfig op, which re-joins the
    # reshare), then a second refresh steps the cluster to epoch 2.
    # The client must follow both epoch hops by resubmitting pending
    # ops under their original nonces.  Pipelined, so rounds are in
    # flight at both epoch boundaries and each closing round's tail is
    # requeued onto the next session.
    reconfig_churn = Scenario(
        name="reconfig-churn",
        seed=7707,
        ops=12,
        op_concurrency=4,
        abc_max_batch=8,
        abc_pipeline_depth=3,
        reconfigs=((3.0, "refresh"), (8.0, "refresh")),
        events=(
            LifecycleEvent(at=3.2, action="kill", party=2),
            LifecycleEvent(at=4.6, action="restart", party=2),
        ),
    )
    # No dealer, then a live membership change: the servers generate
    # the keys at boot, a fifth replica joins by an ordered add (4 -> 5,
    # state transfer on the new epoch) and leaves by a remove (5 -> 4).
    # Every member must enter both epochs with its pre-switch shares
    # dead, and the joiner's journal is checked with the others.
    dealerless = Scenario(
        name="dealerless",
        seed=8808,
        ops=8,
        dealerless=True,
        workload_start=3.0,
        reconfigs=((4.0, "add"), (7.5, "remove")),
    )
    return {
        scenario.name: scenario
        for scenario in (
            partition_heal, kill_recover, stall, torture, pipeline_load,
            reconnect_churn, reconfig_churn, dealerless,
        )
    }


# -- scenario templating (the sweep harness's parameterization surface) -------------
#
# A sweep grid names a *fault mix*, a *latency distribution* and a
# *client load* per axis value; these templates turn those names into
# concrete FaultSpec/LifecycleEvent/workload fragments, parameterized by
# the cluster size where that matters (partition groups, churn victims).

FAULT_TEMPLATES = ("clean", "lossy", "duplicating", "partition", "churn")
LATENCY_TEMPLATES = ("none", "jitter", "heavy")
LOAD_TEMPLATES = ("serial", "pipelined", "heavy")


def fault_template(
    name: str, n: int
) -> tuple[FaultSpec, tuple[LifecycleEvent, ...]]:
    """A named fault mix instantiated for an ``n``-party cluster.

    Returns the base :class:`FaultSpec` plus any lifecycle events the
    mix implies (``churn`` kills and restarts the highest-numbered
    party).  Latency overlays from :func:`latency_template` compose on
    top of the returned spec.
    """
    if name == "clean":
        return FaultSpec(), ()
    if name == "lossy":
        return FaultSpec(reset_rate=0.03, corrupt_rate=0.02), ()
    if name == "duplicating":
        return FaultSpec(duplicate_rate=0.08, hold_rate=0.1, max_hold=0.08), ()
    if name == "partition":
        _require(n >= 2, f"fault template 'partition' needs n >= 2, got {n}")
        return (
            FaultSpec(
                duplicate_rate=0.04,
                partitions=(
                    PartitionSpec(start=2.6, stop=4.4, group=(n - 1,)),
                ),
            ),
            (),
        )
    if name == "churn":
        _require(n >= 2, f"fault template 'churn' needs n >= 2, got {n}")
        return (
            FaultSpec(reset_rate=0.02),
            (
                LifecycleEvent(at=3.0, action="kill", party=n - 1),
                LifecycleEvent(at=4.2, action="restart", party=n - 1),
            ),
        )
    raise ScenarioError(
        f"unknown fault template {name!r} "
        f"(expected one of {', '.join(FAULT_TEMPLATES)})"
    )


def latency_template(name: str) -> dict:
    """A named latency/jitter distribution as a FaultSpec field overlay
    (applied with :func:`dataclasses.replace` over the fault mix)."""
    if name == "none":
        return {}
    if name == "jitter":
        return {
            "delay_rate": 0.2, "max_delay": 0.02,
            "hold_rate": 0.1, "max_hold": 0.05,
        }
    if name == "heavy":
        return {
            "delay_rate": 0.45, "max_delay": 0.06,
            "hold_rate": 0.25, "max_hold": 0.15,
        }
    raise ScenarioError(
        f"unknown latency template {name!r} "
        f"(expected one of {', '.join(LATENCY_TEMPLATES)})"
    )


def load_template(name: str) -> dict:
    """A named client workload as Scenario field overrides (op count,
    concurrency, atomic-broadcast batching/pipelining knobs)."""
    if name == "serial":
        return {"ops": 6, "op_concurrency": 1}
    if name == "pipelined":
        return {
            "ops": 10, "op_concurrency": 4,
            "abc_max_batch": 8, "abc_pipeline_depth": 3,
        }
    if name == "heavy":
        return {
            "ops": 16, "op_concurrency": 8,
            "abc_max_batch": 16, "abc_pipeline_depth": 4,
        }
    raise ScenarioError(
        f"unknown load template {name!r} "
        f"(expected one of {', '.join(LOAD_TEMPLATES)})"
    )


def parameterize_scenario(
    name: str,
    *,
    n: int,
    t: int,
    seed: int,
    fault: str = "clean",
    latency: str = "none",
    load: str = "serial",
    byzantine: tuple[tuple[int, str], ...] = (),
) -> Scenario:
    """Compose a concrete :class:`Scenario` from template names.

    This is the sweep harness's expansion primitive: one grid cell =
    one call.  The composed scenario is validated, so a malformed cell
    (byzantine party out of range, t >= n, ...) fails at expansion time
    rather than mid-campaign.
    """
    faults, events = fault_template(fault, n)
    overlay = latency_template(latency)
    if overlay:
        faults = replace(faults, **overlay)
    scenario = Scenario(
        name=name,
        n=n,
        t=t,
        seed=seed,
        faults=faults,
        events=events,
        byzantine=tuple(byzantine),
        **load_template(load),
    )
    scenario.validate()
    return scenario


def plan_timeline(scenario: Scenario) -> list[dict]:
    """Derive the full fault-and-workload schedule from the scenario.

    Pure function of the spec (op spacing jitter comes from
    ``random.Random(scenario.seed)``), so the same seed always yields
    the identical timeline — this is what the run journal records and
    what ``chaos replay`` re-derives and compares.  Entries are plain
    JSON types so equality survives a serialization round-trip.
    """
    rng = random.Random(scenario.seed)
    timeline: list[dict] = []
    for cut in scenario.faults.partitions:
        timeline.append(
            {
                "at": cut.start,
                "kind": "partition",
                "stop": cut.stop,
                "group": list(cut.group),
            }
        )
    for event in scenario.events:
        timeline.append(
            {"at": event.at, "kind": event.action, "party": event.party}
        )
    for at, action in scenario.reconfigs:
        timeline.append({"at": float(at), "kind": "reconfig", "action": action})
    at = scenario.workload_start
    for i in range(scenario.ops):
        at += 0.15 + rng.random() * 0.35
        timeline.append(
            {
                "at": round(at, 6),
                "kind": "op",
                "op": ["set", f"chaos-{i}", i],
            }
        )
    timeline.sort(key=lambda entry: (entry["at"], entry["kind"], entry.get("party", -1)))
    return timeline


def corrupt_checkpoint(directory: str | pathlib.Path, party: int) -> bool:
    """Flip a byte inside the checkpoint body of the party's record
    (keeping the recorded MAC and the keys beside it) so the next
    ``--recover`` must reject it; False if none exists yet."""
    path = state_path(directory, party)
    if not path.exists():
        return False
    record = HostState.load(path)
    sealed = record.checkpoint
    if not sealed or not sealed["body"]:
        return False
    body = bytearray.fromhex(sealed["body"])
    body[len(body) // 2] ^= 0xFF
    replace(record, checkpoint={**sealed, "body": body.hex()}).save(directory, party)
    return True


# -- running a scenario -------------------------------------------------------------


async def run_timeline(
    scenario: Scenario, cluster: Any, echo: Callable[[dict], None] | None = None
) -> dict:
    """Interpret ``scenario`` on ``cluster``; returns the run report.

    The one interpreter of a timeline: every entry is dispatched to a
    verb of ``cluster`` (a kind the cluster cannot perform raises — it
    is never skipped), then come the quiescent window, the liveness
    probes and the checkers' verdicts.  Both clusters run the same
    replica hosts; what a verb means alike on both is ``_Cluster``'s,
    what differs between real processes (:class:`TcpCluster`) and the
    simulator (:class:`repro.net.sweep.SimCluster`) is each one's; the
    verb table is in docs/CHAOS.md.  ``echo`` sees each event as it is noted.
    """
    timeline = plan_timeline(scenario)
    events: list[dict] = []
    open_calls = 0

    def note(kind: str, at: float | None = None, **observed: object) -> None:
        event = {"kind": kind, **observed, "at_actual": round(cluster.clock(), 3)}
        if at is not None:
            event = {"at": at, **event}
        events.append(event)
        if echo is not None:
            echo(event)

    def track(at: float, kind: str, answer: Callable, **fields: object) -> Callable:
        """The completion callback of one client call: takes it out of
        the window and notes it — ``latency`` is None when the cluster
        gave up on it.  A workload call may legitimately stall while
        faults are active; that is not a liveness verdict (probes in
        the quiescent window are), and the safety checker only requires
        *committed* operations to survive."""
        nonlocal open_calls
        open_calls += 1
        started = cluster.clock()

        def done(reply: Any) -> None:
            nonlocal open_calls
            open_calls -= 1
            if reply is None:
                note(kind, at, **fields, latency=None)
            else:
                latency = round(cluster.clock() - started, 3)
                note(kind, at, **fields, **answer(reply), latency=latency)

        return done

    try:
        for entry in timeline:
            at, kind = entry["at"], entry["kind"]
            await cluster.advance_to(at)
            if kind == "op":
                # At most op_concurrency calls in flight (1 = a closed
                # loop), so the replicas see batched, pipelined load.
                # Only a workload op waits for a slot; the timeline
                # itself never waits on a call.
                while open_calls >= scenario.op_concurrency:
                    await cluster.next_reply()
                await cluster.submit(
                    tuple(entry["op"]),
                    track(at, "op", lambda r: {"nonce": r.nonce}, op=entry["op"]),
                )
            elif kind == "reconfig":
                # Not held back by the window: the interesting failures
                # are kills landing *during* the resharing it triggers.
                action = entry["action"]
                epoch, operation = await cluster.reconfigure(action)
                await cluster.submit(
                    operation,
                    track(
                        at, "reconfig", lambda r: {"result": list(r.result)},
                        action=action, epoch=epoch,
                    ),
                )
            elif kind == "partition":
                # Realized by the cluster's fault plan as its clock moves.
                note(kind, at, group=entry["group"], heal_at=entry["stop"])
            elif kind in LIFECYCLE_ACTIONS:
                verb = getattr(cluster, kind.replace("-", "_"))
                observed = await verb(entry["party"])
                note(kind, at, party=entry["party"], **(observed or {}))
            else:
                raise ScenarioError(f"unknown timeline kind {kind!r}")

        # -- quiescent window: every partition healed, no pending fault --
        heal_at = max(
            (cut.stop for cut in scenario.faults.partitions), default=0.0
        )
        await cluster.advance_to(heal_at + 1.0)
        await cluster.settle()
        while open_calls:
            await cluster.next_reply()
        # What the members said about the epochs accepted changes
        # opened (only a cluster that performed one is asked).
        epochs = opened_epochs(events, scenario.n)
        entered = await cluster.entered(epochs) if epochs else {}
        note("quiescent")

        probes: list[dict] = []
        for i in range(LIVENESS_PROBES):
            operation = ("set", f"probe-{i}", i)
            started = cluster.clock()
            answered = await cluster.probe(operation)
            latency = round(cluster.clock() - started, 3) if answered else None
            probes.append({"op": list(operation), "latency": latency})
            note("probe", op=list(operation), latency=latency)
    finally:
        await cluster.close()

    client = cluster.client
    committed = [
        JournalEntry(
            client=client.client_id, nonce=nonce, op=tuple(client.operation(nonce))
        )
        for nonce in sorted(client.completed)
    ]
    journals = cluster.journals()
    safety = check_safety(journals, committed)
    liveness = check_liveness(probes, cluster.liveness_bound)
    reconfigs = check_reconfigs(events, entered, scenario.n)
    return {
        "scenario": scenario.to_json(),
        "backend": cluster.backend,
        "latency_unit": cluster.latency_unit,
        "timeline": timeline,
        "events": events,
        "journal_lengths": {
            str(party): len(journals[party]) for party in sorted(journals)
        },
        "committed": len(committed),
        # Highest atomic-broadcast round an honest replica executed in.
        "last_round": max(
            (entry.round for log in journals.values() for entry in log),
            default=0,
        ),
        "resubmissions": client.resubmissions,
        "duplicate_replies": client.duplicate_replies,
        # On the simulator the client shares the replicas' trace, so how
        # their shares were checked (``shares.*``) shows here too.
        "client_counters": {
            name: value
            for name, value in sorted(client.network.trace.counters.items())
            if name.startswith(("chaos.", "transport.", "shares."))
        },
        "safety": safety.to_json(),
        "liveness": liveness.to_json(),
        "reconfig": reconfigs.to_json(),
        "ok": safety.ok and liveness.ok and reconfigs.ok,
    }


class _Cluster:
    """``run_timeline``'s cluster: n replica hosts on one deployment
    directory, with every verb that means the same on both networks.
    A subclass supplies ``_addresses`` (what ``cluster.json`` records
    for each party), ``_spawn`` (replicas, each booting from what its
    own directory holds and recovering if asked, with the host's
    ``(kind, fields)`` records in ``events``, and ``wait_for``, ``stop`` and
    ``kill`` as :mod:`repro.net.cluster`'s processes have them),
    ``_attach`` (the client), the clock and the client verbs."""

    def __init__(self, scenario: Scenario, workdir: pathlib.Path) -> None:
        self.scenario = scenario
        self.workdir = workdir
        self.byzantine = dict(scenario.byzantine)
        # party -> its running replica; ``spawned`` keeps every replica
        # ever started (what each said outlives it), ``down`` the
        # parties killed and not restarted.
        self.replicas: dict[int, Any] = {}
        self.spawned: list[Any] = []
        self.down: set[int] = set()
        self.reconfig_rng = random.Random(scenario.seed ^ 0x5EC0)
        # Parties that must say ``replica-recovered``; (party, epoch) of
        # each remove planned.
        self.catching_up: list[int] = []
        self.departing: list[tuple[int, int]] = []

    @classmethod
    async def boot(cls, scenario: Scenario, workdir: pathlib.Path) -> "_Cluster":
        """Deal keys (or provision identities and let the servers
        generate them), start every replica and attach the client."""
        rng = random.Random(scenario.seed ^ 0xDEA1)
        knobs = {name: getattr(scenario, name)
                 for name in ("io_timeout", "abc_max_batch", "abc_pipeline_depth")}
        knobs["addresses"] = cls._addresses([*range(scenario.n), CLIENT_BASE])
        if scenario.dealerless:
            provision_dkg_deployment(scenario.n, scenario.t, rng, workdir, **knobs)
        else:
            deal_deployment(workdir, scenario.n, scenario.t, rng, **knobs)
        cluster = cls(scenario, workdir)
        try:
            cluster._started(await cluster._spawn(range(scenario.n)))
            if scenario.dealerless:
                # The cluster's keys exist once the key generation is done.
                for replica in cluster.replicas.values():
                    await replica.wait_for("replica-dkg")
            cluster.client = await cluster._attach()
        except BaseException:
            for replica in cluster.replicas.values():
                await replica.kill()
            raise
        # Reconfigure ops are signed with party 0's identity key, read
        # as an operator would; identity keys persist across epochs, so
        # it covers every epoch the run steps through.
        cluster.signer = identity_key(workdir, 0)
        return cluster

    def _started(self, replicas: dict[int, Any]) -> None:
        self.replicas.update(replicas)
        self.spawned.extend(replicas.values())
        self.down.difference_update(replicas)

    async def kill(self, party: int) -> None:
        await self.replicas[party].kill()
        self.down.add(party)

    async def corrupt_checkpoint(self, party: int) -> dict:
        return {"corrupted": corrupt_checkpoint(self.workdir, party)}

    async def restart(self, party: int) -> dict:
        self._started(await self._spawn([party], recover=True))
        checkpoint = await self.replicas[party].wait_for("replica-checkpoint")
        if party not in self.byzantine:
            self.catching_up.append(party)
        return {"checkpoint": checkpoint["status"]}

    async def reconfigure(self, action: str) -> tuple[int, tuple]:
        # The newest host record holds the *cluster's* epoch and
        # membership, even before the client has tripped over a tombstone.
        epoch, public = current_membership(self.workdir)
        target, members = max(epoch, self.client.epoch) + 1, public.n
        change: dict[str, Any] = {}
        if action == "add":
            # The joiner is provisioned and listening before the ordered
            # op that admits it carries its identity key and address.
            host, port = address = self._addresses([members])[members]
            bundle = admit_joiner(self.workdir, members, address, self.reconfig_rng, self.client)
            self._started(await self._spawn([members]))
            self.catching_up.append(members)
            change = dict(
                party=members, verify_key=bundle.signing_key.verify_key.h,
                host=host, port=port,
            )
        elif action == "remove":
            self.departing.append((members - 1, target))
            change = dict(party=members - 1)
        return target, reconfig.reconfigure_operation(
            action, target, 0, self.signer, self.reconfig_rng, **change
        )

    def _entries(self, party: int) -> list[dict]:
        """The fields of every epoch-entry record any replica of
        ``party`` made: a restarted one may have entered before."""
        return [
            fields
            for replica in self.spawned if replica.party == party
            for kind, fields in replica.events if kind in _ENTRY_KINDS
        ]

    async def entered(self, epochs: dict[int, int]) -> dict[int, list[dict]]:
        """Each live honest party's epoch-entry records, once it has
        said it entered each of ``epochs`` (epoch -> members) it belongs
        to or the deployment's ``io_timeout`` passed waiting for that
        record: the reconfiguration checker judges one that never came.
        A member an accepted remove retired is first stopped once it
        says it departed, as its operator would (a rejected one keeps
        running)."""
        for party, epoch in self.departing:
            if epoch in epochs:
                await self.replicas[party].wait_for("replica-departed", epoch=epoch)
                await self.replicas[party].stop()
        live = [
            p for p in sorted(self.replicas)
            if p not in self.byzantine and p not in self.down
        ]
        for party in live:
            for epoch, members in sorted(epochs.items()):
                said = {fields.get("epoch") for fields in self._entries(party)}
                if party < members and str(epoch) not in said:
                    try:
                        await self.replicas[party].wait_for(_ENTRY_KINDS, epoch=epoch)
                    except TransportError:
                        pass  # exited or silent: reconfig.not-entered
        return {party: self._entries(party) for party in live}

    def journals(self) -> dict[int, list[JournalEntry]]:
        """Every honest party ever spawned, a departed one's too."""
        spawned = {replica.party for replica in self.spawned}
        return read_journals(self.workdir, sorted(spawned - set(self.byzantine)))


# What a replica says on entering an epoch a reconfiguration opened:
# by the resharing, or on the members' word after missing it.
_ENTRY_KINDS = ("replica-epoch", "replica-stale-epoch")


class TcpCluster(_Cluster):
    """The cluster of replica subprocesses over TCP: the wall clock,
    signals, and what each process printed."""

    backend = "tcp"
    latency_unit = "seconds"
    liveness_bound = LIVENESS_BOUND

    _addresses = staticmethod(allocate_addresses)

    def __init__(self, scenario: Scenario, workdir: pathlib.Path) -> None:
        super().__init__(scenario, workdir)
        self.loop = asyncio.get_running_loop()
        self.epoch = save_fault_plan(workdir, scenario.faults, scenario.seed)
        # The shared wall-clock epoch in this loop's clock, so the
        # orchestrator and every replica process agree on event times.
        self.t0 = self.loop.time() - (time.time() - self.epoch)
        self.calls: set[asyncio.Task] = set()
        print(f"chaos[{scenario.name}]: spawning {scenario.n} replicas "
              f"(byzantine: {self.byzantine or 'none'})", flush=True)

    def _spawn(self, parties, recover: bool = False):
        return spawn_replicas(
            self.workdir, parties, *(["--recover"] if recover else []),
            "--checkpoint-every", str(self.scenario.checkpoint_every),
            byzantine=self.byzantine, journal=True,
        )

    def _attach(self):
        faults = SeededFaultPlan(self.scenario.faults, self.scenario.seed, epoch=self.epoch)
        return attach_client(self.workdir, random.Random(self.scenario.seed + 99), faults=faults)

    def clock(self) -> float:
        return self.loop.time() - self.t0

    async def advance_to(self, at: float) -> None:
        delay = at - self.clock()
        if delay > 0:
            await asyncio.sleep(delay)

    async def suspend(self, party: int) -> None:
        self.replicas[party].suspend()

    async def resume(self, party: int) -> None:
        self.replicas[party].resume()

    async def submit(self, operation: tuple, done: Callable) -> None:
        self.calls.add(self.loop.create_task(self._call(operation, done)))

    async def _call(self, operation: tuple, done: Callable) -> None:
        try:
            reply = await self.client.call(
                operation, timeout=OP_TIMEOUT, attempt_timeout=2.0
            )
        except asyncio.TimeoutError:
            reply = None
        done(reply)

    async def next_reply(self) -> None:
        """Until a call in flight has finished; each ends by its own
        ``OP_TIMEOUT``, and one that died of anything else fails the run."""
        finished, self.calls = await asyncio.wait(  # repro: noqa-RL005 bounded by the timeout= kwarg; calls self-terminate via OP_TIMEOUT
            self.calls,
            timeout=OP_TIMEOUT + 5.0,
            return_when=asyncio.FIRST_COMPLETED,
        )
        for task in finished:
            task.result()

    async def settle(self) -> None:
        """Restarted and joined replicas have caught up."""
        for party in self.catching_up:
            await self.replicas[party].wait_for("replica-recovered")

    async def probe(self, operation: tuple) -> bool:
        try:
            await self.client.call(
                operation, timeout=self.liveness_bound, attempt_timeout=2.0
            )
        except asyncio.TimeoutError:
            return False
        return True

    async def close(self) -> None:
        for task in self.calls:
            task.cancel()
        print(f"chaos[{self.scenario.name}]: stopping the cluster", flush=True)
        try:
            for party in sorted(self.replicas):
                await self.replicas[party].stop()
        finally:
            for replica in self.replicas.values():
                await replica.kill()
            await self.client.network.close()


def resolve_scenario(name_or_path: str, seed: int | None = None) -> Scenario:
    """A builtin scenario by name, or by path a JSON spec, a run journal
    or a sweep repro bundle (the last two by their ``scenario`` key);
    ``seed`` overrides the spec's seed when given."""
    scenarios = builtin_scenarios()
    if name_or_path in scenarios:
        scenario = scenarios[name_or_path]
    else:
        path = pathlib.Path(name_or_path)
        if not path.exists():
            raise SystemExit(
                f"chaos: unknown scenario {name_or_path!r} "
                f"(builtins: {', '.join(sorted(scenarios))})"
            )
        data = json.loads(path.read_text())
        try:
            scenario = Scenario.from_json(data.get("scenario", data))
        except ScenarioError as exc:
            raise SystemExit(f"chaos: invalid scenario {name_or_path}: {exc}") from exc
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    return scenario


def failure_record(
    report: dict, scenario_ref: str | None = None
) -> dict:
    """The machine-readable verdict CI jobs and the sweep gate on: the
    violation kinds, the seed that reproduces the run, and where the
    scenario came from."""
    scenario = report.get("scenario", {})
    return {
        "failed": not report.get("ok", False),
        "scenario": scenario.get("name"),
        "seed": scenario.get("seed"),
        "scenario_ref": scenario_ref,
        "violations": violation_kinds(report),
        "issues": [
            issue for checker in ("safety", "liveness", "reconfig")
            for issue in (report.get(checker) or {}).get("issues", [])
        ],
    }


def run_tcp(
    scenario: Scenario,
    directory: str | pathlib.Path | None = None,
    keep: bool = False,
) -> dict:
    """Execute a scenario on a cluster of replica processes over TCP,
    orchestrated from this process; returns the run's report (scenario
    + derived timeline + observations + verdicts), also written to
    ``chaos-journal.json`` inside the working directory.  A temporary
    working directory is removed afterwards unless ``keep``."""
    created = directory is None
    workdir = pathlib.Path(directory or tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def echo(event: dict) -> None:
            seen = {k: v for k, v in event.items() if k not in ("at", "at_actual")}
            print(
                f"chaos[{scenario.name}] t={event['at_actual']:>6.2f}: {seen}",
                flush=True,
            )

        async def run() -> dict:
            cluster = await TcpCluster.boot(scenario, workdir)
            return await run_timeline(scenario, cluster, echo)

        report = asyncio.run(run())
        (workdir / DEFAULT_JOURNAL).write_text(json.dumps(report, indent=1))
        return report
    finally:
        if created and not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        elif keep:
            print(f"chaos state kept in {workdir}")


def record_run(
    report: dict,
    journal_out: str | pathlib.Path,
    failure_out: str | pathlib.Path,
    scenario_ref: str | None = None,
) -> int:
    """What ``chaos run`` makes of a report; returns a process exit code.

    Writes the report to ``journal_out`` and, when a checker fired, a
    machine-readable failure record (violation kinds, seed, scenario
    reference) to ``failure_out``, so CI jobs gate uniformly without
    parsing logs.
    """
    name = report["scenario"]["name"]
    pathlib.Path(journal_out).write_text(json.dumps(report, indent=1))
    print(f"chaos[{name}]: journal written to {journal_out}")
    for checker in ("safety", "liveness", "reconfig"):
        for issue in report[checker]["issues"]:
            print(f"chaos[{name}]: {checker.upper()}: {issue}")
    if not report["ok"]:
        record = failure_record(report, scenario_ref=scenario_ref)
        record["journal"] = str(journal_out)
        pathlib.Path(failure_out).write_text(json.dumps(record, indent=1))
        print(f"chaos[{name}]: failure record written to {failure_out}")
    verdict = "ok" if report["ok"] else "FAILED"
    print(
        f"chaos[{name}]: {verdict} "
        f"(safety={report['safety']['ok']}, "
        f"liveness={report['liveness']['ok']}, "
        f"reconfig={report['reconfig']['ok']}, "
        f"committed={report['committed']}, "
        f"resubmissions={report['resubmissions']})"
    )
    return 0 if report["ok"] else 1


def replay_journal(journal: str | pathlib.Path) -> int:
    """Re-derive the fault schedule from a recorded run journal (or a
    sweep repro bundle): it must be *identical* to the recorded one —
    the reproducibility invariant.  To run a journal's scenario again,
    ``chaos run --scenario <journal>`` (``--seed`` reseeds it)."""
    data = json.loads(pathlib.Path(journal).read_text())
    try:
        scenario = Scenario.from_json(data["scenario"])
    except ScenarioError as exc:
        raise SystemExit(f"chaos replay: invalid scenario in {journal}: {exc}") from exc
    timeline = plan_timeline(scenario)
    if timeline != data["timeline"]:
        print("chaos replay: MISMATCH — derived timeline differs from journal")
        for derived, recorded in zip(timeline, data["timeline"]):
            if derived != recorded:
                print(f"  derived:  {derived}")
                print(f"  recorded: {recorded}")
                break
        return 1
    print(
        f"chaos replay: timeline of {len(timeline)} events reproduced "
        f"exactly (seed {scenario.seed})"
    )
    return 0
