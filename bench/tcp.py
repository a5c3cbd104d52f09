"""The ``tcp_*`` workloads: ``run-replica`` subprocesses over loopback TCP.

Replicas are started through the public CLI (``python -m repro
run-replica --dir … --party …``) with stdout and stderr going to a
per-party file the bench reads back — the spawner in
``repro.net.runtime`` reads a pipe line by line and dies on the
``replica-final … snapshot=`` line once it passes asyncio's 64 KiB
limit.  Loopback only, no injected delay: latency here is processor and
scheduler time (``chaos.FaultSpec.delay_*`` sleeps inside the per-link
write pump, so it throttles frames serially and cannot stand in for a
WAN).

Every wait has a deadline, a replica that exits early fails the run
with the tail of its log, shutdown is SIGTERM then SIGKILL, and the
deployment directory is removed on every exit path.
"""

from __future__ import annotations

import ast
import asyncio
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.crypto import keystore
from repro.crypto.dealer import CLIENT_BASE, deal_system
from repro.net.runtime import CLUSTER_FILE, ClusterConfig, allocate_addresses
from repro.net.transport import TransportNetwork
from repro.smr.client import ServiceClient

from bench.children import WORK, child_env
from bench.hostspeed import HostSpeed
from bench.loadgen import LoadClient
from bench.measure import ABC_CONFIG, KEY_SEED, WARMUP, Run, check_outputs
from bench.trace import Tracer
from bench.workloads import KEYS, Workload, expected_snapshot, operations

__all__ = ["BenchError", "ReplicaProcess", "TcpCluster", "run"]

IO_TIMEOUT = 60.0
STOP_GRACE = 15.0
POLL = 0.01
_TICK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The system under test did not do what the workload needs."""


class ReplicaProcess:
    """One replica subprocess and the file it prints to."""

    def __init__(
        self, directory: pathlib.Path, party: int, traced: bool, recover: bool = False
    ) -> None:
        self.party = party
        self.log = directory / f"replica-{party}{'-recovered' if recover else ''}.log"
        cli = ["run-replica", "--dir", str(directory), "--party", str(party)]
        if recover:
            cli.append("--recover")
        # The traced pass starts the same CLI through a launcher that
        # wraps the layers first; see bench/replica_main.py.
        module = ["bench.replica_main", str(directory)] if traced else ["repro"]
        with open(self.log, "wb") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", *module, *cli],
                stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=child_env(),
            )
        self.snapshots = 0

    def output(self) -> str:
        return self.log.read_text(errors="replace")

    def line(self, needle: str) -> str | None:
        return next((ln for ln in self.output().splitlines() if needle in ln), None)

    async def wait_for(self, needle: str, timeout: float = IO_TIMEOUT) -> str:
        deadline = time.monotonic() + timeout
        while True:
            found = self.line(needle)
            if found is not None:
                return found
            exited = self.proc.poll() is not None
            if exited or time.monotonic() > deadline:
                raise BenchError(
                    f"replica {self.party} "
                    f"{'exited with %s' % self.proc.returncode if exited else 'timed out'} "
                    f"before printing {needle!r}; log tail:\n{self.output()[-2000:]}"
                )
            await asyncio.sleep(POLL)

    def cpu_s(self) -> float:
        """User + system CPU so far, from ``/proc/<pid>/stat``."""
        stat = pathlib.Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mb(self) -> float:
        for line in pathlib.Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError(f"no VmHWM for replica {self.party}")

    async def trace_snapshot(self, directory: pathlib.Path) -> dict:
        """Ask a traced replica for its totals so far (SIGUSR1)."""
        self.snapshots += 1
        path = directory / f"trace-{self.party}-{self.snapshots}.json"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + IO_TIMEOUT
        while not path.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"replica {self.party} wrote no trace snapshot")
            await asyncio.sleep(POLL)
        return json.loads(path.read_text())

    async def stop(self) -> None:
        """SIGTERM, then SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.terminate()
            deadline = time.monotonic() + STOP_GRACE
            while self.proc.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(POLL)
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=IO_TIMEOUT)


class TcpCluster:
    """A dealt deployment directory, its replica processes, and the
    client identities the load generator speaks through."""

    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        WORK.mkdir(exist_ok=True)
        self.directory = pathlib.Path(tempfile.mkdtemp(prefix="cluster-", dir=WORK))
        self.replicas: dict[int, ReplicaProcess] = {}
        self.networks: list[TransportNetwork] = []
        self.loads: list[LoadClient] = []
        self.boot_s = 0.0
        self._reports: dict[int, dict] | None = None

    async def boot(self) -> None:
        """Deal keys, write the keystore, start the replicas, connect the
        clients, commit one warm-up operation."""
        w = self.workload
        keys = deal_system(
            w.n, random.Random(KEY_SEED), t=w.t, clients=w.clients, group=w.group()
        )
        keystore.write_deployment(keys, self.directory)
        client_ids = [CLIENT_BASE + c for c in range(w.clients)]
        addresses = allocate_addresses(list(range(w.n)) + client_ids)
        ClusterConfig(
            addresses, io_timeout=IO_TIMEOUT,
            abc_max_batch=ABC_CONFIG["max_batch"],
            abc_pipeline_depth=ABC_CONFIG["pipeline_depth"],
        ).save(self.directory / CLUSTER_FILE)
        started = time.perf_counter()
        for party in range(w.n):
            self.replicas[party] = ReplicaProcess(self.directory, party, self.traced)
        for replica in self.replicas.values():
            await replica.wait_for("listening")
        self.boot_s = time.perf_counter() - started
        self.public = keystore.load_public(self.directory / "public.json")
        for client_id in client_ids:
            cid, channel_keys = keystore.load_client(self.directory / f"client-{client_id}.json")
            network = TransportNetwork(cid, addresses, channel_keys)
            # Free on this backend: the transport hands the trace the
            # bytes it is about to frame anyway.
            network.trace.enable_byte_accounting()
            load = LoadClient(
                ServiceClient(cid, network, self.public, random.Random(KEY_SEED + cid))
            )
            network.attach(cid, load)
            await network.start()
            self.networks.append(network)
            self.loads.append(load)
        self.loads[0].submit(WARMUP)
        await self.wait_idle()

    async def wait_idle(self, timeout: float = IO_TIMEOUT, settled: bool = False) -> bool:
        """Until no client has a request outstanding — and, if
        ``settled``, every replica (a commit needs only a quorum of
        them) has caught up with the last one; False on timeout."""
        deadline = time.monotonic() + timeout
        n = self.workload.n
        while not all(
            load.idle and (not settled or load.answered_by_all(n)) for load in self.loads
        ):
            for replica in self.replicas.values():
                if replica.proc.poll() is not None:
                    raise BenchError(
                        f"replica {replica.party} exited mid-run; log tail:\n"
                        f"{replica.output()[-2000:]}"
                    )
            if time.monotonic() > deadline:
                return False
            await asyncio.sleep(POLL)
        return True

    async def recover(self, victim: int) -> float:
        """SIGKILL one replica, restart it with ``--recover``; seconds
        until it reports its state transferred."""
        self.replicas[victim].kill()
        started = time.perf_counter()
        self.replicas[victim] = ReplicaProcess(self.directory, victim, self.traced, recover=True)
        await self.replicas[victim].wait_for("replica-recovered")
        return time.perf_counter() - started

    async def shutdown(self) -> dict[int, dict]:
        """Stop everything, remove the directory; what each replica
        reported on its way out (empty for one that had to be killed)."""
        if self._reports is not None:
            return self._reports
        self._reports = reports = {}
        try:
            for network in self.networks:
                await network.close()
            for replica in self.replicas.values():
                if replica.proc.poll() is None:
                    replica.proc.terminate()
            for party, replica in self.replicas.items():
                await replica.stop()
                reports[party] = _final_report(replica)
        finally:
            for replica in self.replicas.values():
                replica.kill()
            shutil.rmtree(self.directory, ignore_errors=True)
        return reports


def _final_report(replica: ReplicaProcess) -> dict:
    """Parse ``replica-abc-stats`` and ``replica-final`` (printed at SIGTERM)."""
    report: dict = {}
    stats = replica.line("replica-abc-stats")
    final = replica.line("replica-final")
    if stats is None or final is None:
        return report
    report["abc"] = {
        key: float(value)
        for key, value in (part.split("=", 1) for part in stats.split()[2:])
    }
    head, snapshot = final.split(" snapshot=", 1)
    report["executed"] = int(head.rsplit("executed=", 1)[1])
    report["snapshot"] = ast.literal_eval(snapshot)
    return report


async def _open_loop(load: LoadClient, ops: list[tuple], rate: float, first_due: float) -> float:
    """Submit on a fixed schedule whatever the service does; each
    request is timed from when it was due.  Returns the worst lateness
    of the generator itself, in seconds."""
    lateness = 0.0
    for index, operation in enumerate(ops):
        due = first_due + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness = max(lateness, time.perf_counter() - due)
        load.submit(operation, start=due)
    return lateness


async def _measure(
    cluster: TcpCluster, seed: int, seconds: float, tracer: Tracer | None, speed: HostSpeed
) -> Run:
    w = cluster.workload
    total = w.op_count(seconds)
    shares = [total // w.clients + (1 if c < total % w.clients else 0) for c in range(w.clients)]
    ops = [operations(seed, c, shares[c]) for c in range(w.clients)]
    replicas = cluster.replicas
    warm = [len(load.completions) for load in cluster.loads]
    traces_before = (
        [await r.trace_snapshot(cluster.directory) for r in replicas.values()] if tracer else []
    )
    own_before = tracer.snapshot() if tracer else None

    client_bytes = sum(n.trace.bytes_sent for n in cluster.networks)
    cpu_before = {p: r.cpu_s() for p, r in replicas.items()}
    own_cpu = time.process_time()
    started = time.perf_counter()
    lateness = 0.0
    if w.rate:
        # Clients are phase-offset so arrivals are evenly spaced.
        lateness = max(await asyncio.gather(*(
            _open_loop(load, ops[c], w.rate, started + 0.05 + c / (w.rate * w.clients))
            for c, load in enumerate(cluster.loads)
        )))
    else:
        for c, load in enumerate(cluster.loads):
            load.run_closed(ops[c], w.window)
    await cluster.wait_idle()
    completions = [c for load, skip in zip(cluster.loads, warm) for c in load.completions[skip:]]
    ended = max((c.end for c in completions), default=time.perf_counter())
    own_cpu = time.process_time() - own_cpu - speed.spent_s(started, ended)
    cpu = {p: r.cpu_s() - cpu_before[p] for p, r in replicas.items()}
    rss = max(r.peak_rss_mb() for r in replicas.values())

    result = Run(
        setup_s=[], completions=completions, attempted=total,
        wall_s=ended - started, cpu_s=sum(cpu.values()), peak_rss_mb=rss,
        speed=speed.factor(started, ended), scheduled=bool(w.rate),
    )
    if tracer is not None:
        traces_after = [await r.trace_snapshot(cluster.directory) for r in replicas.values()]
        result.traced = {
            "spans": (
                _merge(traces_before + [own_before]),
                _merge(traces_after + [tracer.snapshot()]),
            ),
            "generator_cpu_s": own_cpu,
            "replica_cpu_max_s": max(cpu.values()),
            "lateness_s": lateness,
            "boot_s": cluster.boot_s,
            "resubmissions": sum(load.client.resubmissions for load in cluster.loads),
            "duplicate_replies": sum(load.client.duplicate_replies for load in cluster.loads),
            "client_bytes": sum(n.trace.bytes_sent for n in cluster.networks) - client_bytes,
        }
    return result


def _merge(snapshots: list[dict]) -> dict:
    merged: dict[str, dict[str, int]] = {"self_ns": {}, "calls": {}, "counters": {}}
    for snapshot in snapshots:
        for kind, values in snapshot.items():
            for key, value in values.items():
                merged[kind][key] = merged[kind].get(key, 0) + value
    return merged


async def _verify(cluster: TcpCluster, result: Run, seed: int, speed: HostSpeed) -> None:
    """Read every key back through the service, recover a replica if the
    workload says so, stop the cluster and compare what the replicas
    report with the history the clients saw committed."""
    loads = cluster.loads
    writes = [c for load in loads for c in load.completions]
    expected, _ = expected_snapshot([(c.operation, c.result) for c in writes])
    model = dict(expected[1])
    keys = [f"key-{k:03d}" for k in range(KEYS)] + [WARMUP[1]]
    before = len(loads[0].completions)
    loads[0].run_closed([("get", key) for key in keys], 24)
    if not await cluster.wait_idle(settled=True):
        result.errors.append("read-back did not complete on every replica")
    for read in loads[0].completions[before:]:
        if read.result != ("value", model.get(read.operation[1])):
            result.errors.append(f"{read.operation!r} read {read.result!r}")
    if cluster.workload.recover:
        started = time.perf_counter()
        recover_s = await cluster.recover(cluster.workload.n - 1)
        result.traced["recover_s"] = (recover_s, speed.factor(started, time.perf_counter()))
    reports = await cluster.shutdown()
    missing = [p for p, report in reports.items() if "snapshot" not in report]
    if missing:
        result.errors.append(f"replicas {missing} printed no final state")
    result.errors += check_outputs(
        writes,
        snapshots={p: r["snapshot"] for p, r in reports.items() if "snapshot" in r},
        executed={p: r["executed"] for p, r in reports.items() if "executed" in r},
        public=cluster.public,
        signed=[
            (load.client.client_id, load.client.operation(n), load.client.completed[n])
            for load in loads for n in sorted(load.client.completed)
        ],
        seed=seed,
    )
    if reports.get(0, {}).get("abc"):
        result.traced["abc"] = reports[0]["abc"]


async def _run(
    workload: Workload, seed: int, seconds: float, tracer: Tracer | None, setups: int
) -> Run:
    # Sampled from this process's event loop: like the replicas, it runs
    # on whichever of the vCPUs is free.
    speed = HostSpeed()
    sampler = asyncio.create_task(speed.run())
    setup_s = []
    try:
        for attempt in range(setups):
            cluster = TcpCluster(workload, traced=tracer is not None)
            try:
                started = time.perf_counter()
                await cluster.boot()
                ended = time.perf_counter()
                setup_s.append((ended - started, speed.factor(started, ended)))
                if attempt < setups - 1:
                    continue
                result = await _measure(cluster, seed, seconds, tracer, speed)
                result.setup_s = setup_s
                await _verify(cluster, result, seed, speed)
            finally:
                await cluster.shutdown()
    finally:
        sampler.cancel()
    return result


def run(
    workload: Workload, seed: int, seconds: float, tracer: Tracer | None, setups: int
) -> Run:
    return asyncio.run(_run(workload, seed, seconds, tracer, setups))
