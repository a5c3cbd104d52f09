"""The ``sim_*`` workloads: every node in this process, lock-step delivery.

The service is assembled by the public
:func:`repro.smr.service.build_service`; the bench supplies only the
scheduler and drives ``Network.step`` itself.  Nothing is serialised
and there are no sockets, so what is measured is protocol logic and
cryptography — and, because delivery order is a pure function of the
inputs, every count is exact.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from dataclasses import dataclass

from repro.core.atomic_broadcast import AbcConfig
from repro.net.simulator import LivenessError
from repro.smr.client import ServiceClient
from repro.smr.service import ServiceDeployment, build_service
from repro.smr.state_machine import KeyValueStore

from bench.children import run_module
from bench.hostspeed import HostSpeed
from bench.loadgen import LoadClient
from bench.lockstep import LockStepScheduler
from bench.measure import ABC_CONFIG, KEY_SEED, WARMUP, Run, check_outputs
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Workload, operations

__all__ = ["SimCluster", "run"]

CLIENT_ID = 1000
CORPUS = 3000


@dataclass
class SimCluster:
    service: ServiceDeployment
    scheduler: LockStepScheduler
    load: LoadClient
    speed: HostSpeed

    @classmethod
    def boot(cls, workload: Workload, capture: int = 0) -> "SimCluster":
        """Deal keys, build the service, attach one client, commit one
        warm-up operation (tables and caches a first request fills)."""
        scheduler = LockStepScheduler(capture=capture)
        service = build_service(
            workload.n, KeyValueStore, t=workload.t, group=workload.group(),
            abc_config=AbcConfig(**ABC_CONFIG), scheduler=scheduler, seed=KEY_SEED,
        )
        client = ServiceClient(
            CLIENT_ID, service.network, service.keys.public, random.Random(KEY_SEED + 2)
        )
        load = LoadClient(client, generation=lambda: scheduler.generation)
        service.network.attach(CLIENT_ID, load)
        service.network.start()
        cluster = cls(service, scheduler, load, HostSpeed())
        load.submit(WARMUP)
        cluster.drain()
        return cluster

    def drain(self) -> None:
        """Deliver messages until the client has nothing outstanding,
        sampling the host's speed on the way."""
        step = self.service.network.step
        load = self.load
        tick = self.speed.tick
        while not load.idle:
            if not step():
                raise LivenessError("network quiescent with requests outstanding")
            tick()


def run(
    workload: Workload, seed: int, seconds: float, tracer: Tracer | None, setups: int
) -> Run:
    # Set-up is timed in processes of their own: a user pays for the
    # interpreter start and the imports too, and a second deployment in
    # this process would share (and fill) the first one's per-group
    # exponentiation tables.
    setup_s = []
    for _ in range(setups):
        started = time.perf_counter()
        child = json.loads(run_module("bench.sim", workload.name))
        elapsed = time.perf_counter() - started
        setup_s.append((elapsed - child["sampling_s"], child["host_speed"]))
    cluster = SimCluster.boot(workload)
    network, load = cluster.service.network, cluster.load
    if tracer is not None:
        network.trace.enable_byte_accounting()
    ops = operations(seed, 0, workload.op_count(seconds))
    replica = cluster.service.replicas[0]
    abc_before = replica.abc.stats()
    traced_before = tracer.snapshot() if tracer else None
    warm = len(load.completions)

    cpu = time.process_time()
    started = time.perf_counter()
    load.run_closed(ops, workload.window)
    cluster.drain()
    ended = time.perf_counter()
    sampling_s = cluster.speed.spent_s(started, ended)
    cpu = time.process_time() - cpu - sampling_s
    traced_after = tracer.snapshot() if tracer else None
    abc_after = replica.abc.stats()

    # A commit needs only a quorum: let the stragglers finish before
    # every replica's state is compared.
    network.run()
    completions = load.completions[warm:]
    result = Run(
        setup_s=setup_s,
        completions=completions,
        attempted=len(ops),
        wall_s=ended - started - sampling_s,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        speed=cluster.speed.factor(started, ended),
    )
    replicas = cluster.service.replicas
    client = load.client
    result.errors = check_outputs(
        load.completions,
        snapshots={p: r.state_machine.snapshot() for p, r in replicas.items()},
        executed={p: len(r.executed) for p, r in replicas.items()},
        public=cluster.service.keys.public,
        signed=[
            (CLIENT_ID, client.operation(n), client.completed[n])
            for n in sorted(client.completed)
        ],
        seed=seed,
    )
    if tracer is not None:
        result.traced = {
            "spans": (traced_before, traced_after),
            "abc": {
                "mean_batch": (abc_after["delivered"] - abc_before["delivered"])
                / (abc_after["rounds"] - abc_before["rounds"]),
                "occupancy": abc_after["pipeline_occupancy"],
            },
            "resubmissions": load.client.resubmissions,
            "duplicate_replies": load.client.duplicate_replies,
        }
    return result


if __name__ == "__main__":
    # One timed set-up: ``python -m bench.sim <workload>``.  The parent
    # times the whole process; how slow the host was meanwhile is known
    # only in here.
    speed = SimCluster.boot(WORKLOADS[sys.argv[1]]).speed
    span = (0.0, time.monotonic())
    print(json.dumps({"host_speed": speed.factor(*span), "sampling_s": speed.spent_s(*span)}))
