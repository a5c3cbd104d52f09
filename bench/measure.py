"""What a run produces and how its metrics and verdict are derived.

Both backends fill a :class:`Run`; the end-to-end metrics are computed
here, in one place, so a metric means the same thing on every workload.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.crypto.dealer import PublicKeys
from repro.smr.client import CompletedRequest

from bench import stats
from bench.loadgen import Completion
from bench.trace import LAYERS
from bench.workloads import expected_snapshot

__all__ = [
    "ABC_CONFIG", "KEY_SEED", "SETUPS", "WARMUP", "Run", "check_outputs", "end_to_end",
    "per_layer",
]

# The atomic-broadcast configuration of every workload: batching and
# pipelining on, as deployed (docs/PERFORMANCE.md).
ABC_CONFIG = {"max_batch": 64, "pipeline_depth": 4}

# Set-up is repeated and its median reported, so that one slow process
# start does not read as a regression of set-up work.
SETUPS = 3

WARMUP = ("set", "key-warm", b"\x00" * 16)

# Key material does not follow ``--seed``.  The threshold coin is a
# function of the dealt keys, and the coin decides how many voting
# rounds each agreement takes: on the simulator the whole message
# schedule follows from it (29 to 33 messages per commit across six
# dealings of one workload).  Dealing the same keys every time makes a
# workload the same amount of work on every run and every commit; the
# seed varies what a user varies, the operations.
KEY_SEED = 2001

# Service signatures re-verified after the run, on top of the share
# checks the client already made before combining them.
SIGNATURES_CHECKED = 32


@dataclass
class Run:
    """What a backend measured, in host time.  ``speed`` is the host's
    slowness over the measured window and ``setup_s`` pairs each set-up
    with the slowness over *its* interval (see bench/hostspeed.py);
    every reported duration is divided by the factor it was measured
    under."""

    setup_s: list[tuple[float, float]]
    completions: list[Completion]
    attempted: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    speed: float
    # An open loop's window is as long as its schedule says, however
    # fast the host: it is not a duration the host's speed scales.
    scheduled: bool = False
    errors: list[str] = field(default_factory=list)
    traced: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Not committed, or committed with a wrong result."""
        wrong = sum(
            1 for c in self.completions
            if not (isinstance(c.result, tuple) and c.result[:1] == ("ok",))
        )
        return self.attempted - len(self.completions) + wrong


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    committed = len(run.completions)
    latencies = [c.latency_ms for c in run.completions]
    wall_s = run.wall_s if run.scheduled else run.wall_s / run.speed
    return {
        "setup_s": (statistics.median(s / speed for s, speed in run.setup_s), "s"),
        "committed_ops_per_s": (committed / wall_s, "ops/s"),
        "commit_latency_p50_ms": (stats.percentile(latencies, 50) / run.speed, "ms"),
        "cpu_ms_per_commit": (run.cpu_s * 1e3 / committed / run.speed, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


def per_layer(run: Run, probes: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The traced pass's metrics.  Every workload reports every one; a
    layer that is not on a workload's path (``net.transport`` on the
    simulator, the lock-step delay clock on TCP) reads 0 there.
    Durations are in reference-machine time like the end-to-end ones:
    the window's by ``run.speed``, boot and recovery by the slowness
    over their own interval, the probes by their own process."""
    traced = run.traced
    committed = len(run.completions)
    before, after = traced["spans"]

    def delta(kind: str, key: str) -> float:
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    attributed_ns = 0.0
    for layer in LAYERS:
        self_ns = delta("self_ns", layer)
        attributed_ns += self_ns
        out[f"{layer}.self_cpu_us_per_commit"] = (self_ns / 1e3 / committed, "us")
        out[f"{layer}.calls_per_commit"] = (delta("calls", layer) / committed, "count")
    generator_cpu_s = traced.get("generator_cpu_s", 0.0)
    total_ns = (run.cpu_s + generator_cpu_s) * 1e9
    out["bench.unattributed_cpu_us_per_commit"] = (
        (total_ns - attributed_ns) / 1e3 / committed, "us",
    )
    out["bench.traced_cpu_ms_per_commit"] = (run.cpu_s * 1e3 / committed, "ms")
    out["bench.generator_cpu_ms_per_commit"] = (generator_cpu_s * 1e3 / committed, "ms")
    out["bench.generator_lateness_max_ms"] = (traced.get("lateness_s", 0.0) * 1e3, "ms")

    out["net.msgs_per_commit"] = (delta("counters", "net.msgs") / committed, "count")
    out["net.wire_bytes_per_commit"] = (delta("counters", "net.wire_bytes") / committed, "bytes")
    out["net.transport.client_bytes_per_commit"] = (
        traced.get("client_bytes", 0) / committed, "bytes",
    )
    out["net.runtime.replica_cpu_ms_per_commit.max"] = (
        traced.get("replica_cpu_max_s", 0.0) * 1e3 / committed, "ms",
    )

    abc = traced["abc"]
    out["core.atomic_broadcast.mean_batch"] = (abc["mean_batch"], "count")
    out["core.atomic_broadcast.rounds_per_commit"] = (1 / abc["mean_batch"], "count")
    out["core.atomic_broadcast.pipeline_occupancy"] = (abc["occupancy"], "count")

    latencies = [c.latency_ms for c in run.completions]
    tail_pct, tail_ms = stats.tail(latencies)
    out["smr.client.commit_latency_tail_ms"] = (tail_ms, "ms")
    out["smr.client.commit_latency_tail_pct"] = (tail_pct, "%")
    out["smr.client.commit_delays_p50"] = (
        stats.percentile([c.delays for c in run.completions], 50), "count",
    )
    out["smr.client.resubmissions"] = (traced["resubmissions"], "count")
    out["smr.client.duplicate_replies_per_commit"] = (
        traced["duplicate_replies"] / committed, "count",
    )
    # Everything above was timed inside the window; what follows was not.
    out = {
        name: (value / run.speed if unit in ("us", "ms", "s") else value, unit)
        for name, (value, unit) in out.items()
    }
    out["bench.host_speed_factor"] = (run.speed, "ratio")
    out["net.runtime.boot_s"] = (traced.get("boot_s", 0.0) / run.setup_s[-1][1], "s")
    recover_s, recover_speed = traced.get("recover_s", (0.0, 1.0))
    out["net.runtime.recover_s"] = (recover_s / recover_speed, "s")
    for name, value in probes.items():
        out[name] = (value, "bytes" if name.endswith("bytes_per_msg") else "us")
    return out


def check_outputs(
    completions: list[Completion],
    snapshots: dict[int, object],
    executed: dict[int, int],
    public: PublicKeys,
    signed: list[tuple[int, tuple, CompletedRequest]],
    seed: int,
) -> list[str]:
    """Every way the outputs are wrong (empty when they are right).

    ``completions`` are *all* committed writes of the service's life,
    warm-up included; ``snapshots``/``executed`` are what each honest
    replica reports; ``signed`` are ``(client id, operation, completed
    request)`` triples whose service signature a sample re-verifies.
    """
    expected, errors = expected_snapshot([(c.operation, c.result) for c in completions])
    for party, snapshot in sorted(snapshots.items()):
        if snapshot != expected:
            errors.append(f"replica {party} state differs from the committed history")
    if len(set(executed.values())) > 1:
        errors.append(f"replicas executed different counts: {executed}")
    sample = random.Random(f"bench-verify/{seed}").sample(
        signed, min(SIGNATURES_CHECKED, len(signed))
    )
    for client_id, operation, request in sample:
        if not request.verify(public, client_id, operation):
            errors.append(f"service signature on nonce {request.nonce} does not verify")
    return errors
