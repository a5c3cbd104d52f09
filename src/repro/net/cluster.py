"""Standing up a cluster: deployment directories, replica processes,
clients, and the ``demo-cluster`` walkthroughs (docs/DEPLOYMENT.md).

:mod:`repro.net.runtime` is one process and its files; this module is
the operator around n of them.  The bring-up sequence is written once,
as three functions the demos, the chaos engine, the examples and the
in-process test fixtures call:

* :func:`deal_deployment` — a ready deployment directory from the
  trusted dealer (:func:`repro.net.runtime.provision_dkg_deployment`
  is its dealerless sibling);
* :func:`spawn_replicas` — one subprocess per party, first boot or
  ``--recover``, returned once each is listening;
* :func:`attach_client` — a started client of whatever the directory
  describes; the caller closes its network.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import random
import shutil
import signal
import sys
import tempfile
from collections.abc import Iterable
from typing import Any

from ..crypto import keystore
from ..crypto.dealer import CLIENT_BASE, SystemKeys, deal_system
from ..crypto.groups import small_group
from ..smr import reconfig
from ..smr.client import ServiceClient
from .runtime import (
    CLUSTER_FILE,
    BootstrapFile,
    ClusterConfig,
    allocate_addresses,
    load_epoch,
    parse,
    provision_dkg_deployment,
    provision_joiner,
)
from .transport import FaultPlan, TransportError, TransportNetwork

__all__ = [
    "admit_joiner",
    "attach_client",
    "deal_deployment",
    "demo_cluster",
    "spawn_replicas",
    "submit_each",
]


# -- a deployment directory and a client of it --------------------------------------


def deal_deployment(
    directory: str | pathlib.Path,
    n: int,
    t: int,
    rng: random.Random,
    **cluster: Any,
) -> SystemKeys:
    """Run the trusted dealer for ``n`` servers tolerating ``t`` plus
    one client identity, and write everything ``run-replica`` and
    :func:`attach_client` read: the keystore files, and ``cluster.json``
    with a free localhost port per identity.  ``cluster`` are the other
    :class:`ClusterConfig` fields (``io_timeout``, the ``abc_*`` knobs).
    Returns the dealt keys, for callers that sign with a member's key.
    """
    directory = pathlib.Path(directory)
    keys = deal_system(n, rng, t=t, clients=1, group=small_group())
    keystore.write_deployment(keys, directory)
    addresses = allocate_addresses(list(range(n)) + [CLIENT_BASE])
    ClusterConfig(addresses, **cluster).save(directory / CLUSTER_FILE)
    return keys


async def attach_client(
    directory: str | pathlib.Path,
    rng: random.Random,
    client_id: int = CLIENT_BASE,
    faults: FaultPlan | None = None,
) -> ServiceClient:
    """A started client of the cluster ``directory`` describes, at the
    epoch its keystore is in.  The transport is ``client.network``;
    the caller closes it."""
    directory = pathlib.Path(directory)
    public = keystore.load_public(directory / "public.json")
    cid, channel_keys = keystore.load_client(directory / f"client-{client_id}.json")
    cluster = ClusterConfig.load(directory / CLUSTER_FILE)
    network = TransportNetwork(cid, cluster.addresses, channel_keys, faults=faults)
    client = ServiceClient(cid, network, public, rng, epoch=load_epoch(directory))
    network.attach(cid, client)
    await network.start()
    return client


def admit_joiner(
    directory: str | pathlib.Path,
    party: int,
    rng: random.Random,
    client: ServiceClient,
) -> tuple[BootstrapFile, tuple[str, int]]:
    """The operator's side of an ``add``: provision ``party``'s bootstrap
    identity, give it a free port in ``cluster.json``, and teach the
    running ``client`` that address and the channel key just dealt to
    it (:func:`provision_joiner` rewrote the client bundle).  Returns
    the bundle and the address — what the ordered ``Reconfigure`` has
    to carry; the joiner itself is started with ``--join``."""
    directory = pathlib.Path(directory)
    bundle = provision_joiner(directory, party, rng)
    address = allocate_addresses([party])[party]
    cluster = ClusterConfig.load(directory / CLUSTER_FILE)
    cluster.addresses[party] = address
    cluster.save(directory / CLUSTER_FILE)
    _, client_keys = keystore.load_client(
        directory / f"client-{client.client_id}.json"
    )
    client.network.addresses[party] = address
    client.network.channel_keys[party] = client_keys[party]
    return bundle, address


async def submit_each(
    client: ServiceClient, operations: list[tuple], timeout: float
) -> list[object]:
    """Submit operations one at a time, awaiting each threshold-signed
    answer (``timeout`` apiece); returns their results."""
    results: list[object] = []
    for operation in operations:
        nonce = client.submit(operation)
        await client.network.wait_until(
            lambda: nonce in client.completed, timeout=timeout
        )
        results.append(client.completed[nonce].result)
    return results


# -- replica processes --------------------------------------------------------------


def _replica_env() -> dict[str, str]:
    """Child processes must be able to ``import repro`` exactly like us."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


class _ReplicaProcess:
    """A spawned ``repro run-replica`` subprocess with captured output."""

    def __init__(
        self, proc: asyncio.subprocess.Process, party: int, io_timeout: float
    ) -> None:
        self.proc = proc
        self.party = party
        self.io_timeout = io_timeout
        self.lines: list[str] = []
        # What the child said in the host's vocabulary (runtime.parse),
        # in order; ``_news`` wakes the waiters on each and at the end.
        self.events: list[tuple[str, dict[str, str]]] = []
        self._news = asyncio.Event()
        task = asyncio.get_running_loop().create_task(self._drain())
        # A failed drain wakes the waiters too; stop()/kill() re-raise it.
        task.add_done_callback(lambda _: self._news.set())
        self._task = task

    async def _drain(self) -> None:
        assert self.proc.stdout is not None
        pending = b""
        while True:
            # Terminates on child exit (EOF), not on a deadline — the
            # drain must outlive any pause/partition the child is under.
            # Chunks, not readline(): that raises once a line passes
            # asyncio's 64 KiB limit (``replica-final … snapshot=`` of a
            # large store), which would end the drain for good.
            chunk = await self.proc.stdout.read(1 << 16)  # repro: noqa-RL005 EOF-bounded pipe drain
            *complete, pending = (pending + chunk).split(b"\n")
            if not chunk and pending:
                complete.append(pending)  # unterminated last line
            for raw in complete:
                line = raw.decode(errors="replace").rstrip()
                self.lines.append(line)
                event = parse(line)
                if event is not None:
                    self.events.append(event)
                print(f"  [replica {self.party}] {line}", flush=True)
            self._news.set()
            if not chunk:
                return

    async def wait_for(self, kind: str, **match: object) -> dict[str, str]:
        """The fields of the first ``kind`` event the child has printed
        (or prints within the deployment's ``ClusterConfig.io_timeout``,
        threaded through at spawn time) whose fields include ``match``."""
        wanted = {name: str(value) for name, value in match.items()}
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.io_timeout
        while True:
            self._news.clear()
            for seen, fields in self.events:
                if seen == kind and wanted.items() <= fields.items():
                    return fields
            if self._task.done():
                raise TransportError(
                    f"replica {self.party} exited before printing {kind} {wanted}"
                )
            try:
                await asyncio.wait_for(self._news.wait(), deadline - loop.time())
            except asyncio.TimeoutError:
                raise TransportError(
                    f"replica {self.party} never printed {kind} {wanted}"
                ) from None

    async def stop(self, grace: float = 15.0) -> None:
        if self.proc.returncode is None:
            self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), grace)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()  # repro: noqa-RL005 SIGKILL already sent; exit is certain
        await self._task

    async def kill(self) -> None:
        """Crash the replica (no grace, no cleanup) — the fault model."""
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()  # repro: noqa-RL005 SIGKILL already sent; exit is certain
        await self._task

    def suspend(self) -> None:
        """SIGSTOP: the process freezes mid-whatever — from the cluster's
        point of view, an arbitrarily slow (but not crashed) replica."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        """SIGCONT after :meth:`suspend`."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGCONT)


async def spawn_replicas(
    directory: str | pathlib.Path,
    parties: Iterable[int],
    *flags: str,
    byzantine: dict[int, str] | None = None,
    journal: bool = False,
) -> dict[int, _ReplicaProcess]:
    """Start ``run-replica`` for each of ``parties`` on a ready
    deployment directory; returns once every one is listening (bounded
    by the directory's ``io_timeout``), and kills those already started
    if one does not come up.  ``flags`` go to every process verbatim
    (``"--recover"``, ``"--dkg"``, ``"--checkpoint-every", "8"``);
    ``byzantine`` maps a party to the behaviour it runs instead of an
    honest replica; ``journal`` makes the honest ones keep a journal."""
    directory = pathlib.Path(directory)
    io_timeout = ClusterConfig.load(directory / CLUSTER_FILE).io_timeout
    byzantine = byzantine or {}
    replicas: dict[int, _ReplicaProcess] = {}
    try:
        for party in parties:
            command = [
                sys.executable, "-m", "repro", "run-replica",
                "--dir", str(directory), "--party", str(party), *flags,
            ]
            if party in byzantine:
                command.extend(["--byzantine", byzantine[party]])
            elif journal:
                command.append("--journal")
            proc = await asyncio.create_subprocess_exec(
                *command,
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.STDOUT,
                env=_replica_env(),
            )
            replicas[party] = _ReplicaProcess(proc, party, io_timeout)
        for replica in replicas.values():
            await replica.wait_for("listening")
    except BaseException:
        for replica in replicas.values():
            await replica.kill()
        raise
    return replicas


# -- the demo cluster ---------------------------------------------------------------


class _DemoFailed(Exception):
    """A demo expectation did not hold; the message says which."""


def _expect(held: bool, otherwise: str) -> None:
    if not held:
        raise _DemoFailed(otherwise)


async def _phase(
    client: ServiceClient, title: str, operations: list[tuple], timeout: float
) -> list[object]:
    """One demo phase: announce it, run its operations, show the answers."""
    print(title, flush=True)
    results = await submit_each(client, operations, timeout)
    for operation, result in zip(operations, results):
        print(f"  client: {operation!r} -> {result!r}", flush=True)
    return results


def _expect_full_history(replica: _ReplicaProcess) -> None:
    """Every key of every demo phase is in the stopped replica's final
    snapshot."""
    snapshot = dict(replica.events).get("replica-final", {}).get("snapshot", "")
    missing = [f"key-{i}" for i in range(6) if f"key-{i}" not in snapshot]
    _expect(
        bool(snapshot) and not missing,
        f"replica {replica.party} final state missing {missing or 'everything'}",
    )


async def _demo_cluster(
    n: int, t: int, seed: int, directory: pathlib.Path, timeout: float
) -> None:
    print(f"dealing keys for n={n}, t={t} (plus one client identity)", flush=True)
    deal_deployment(directory, n, t, random.Random(seed), io_timeout=timeout)
    print(f"spawning {n} replica processes", flush=True)
    replicas = await spawn_replicas(directory, range(n))
    client = await attach_client(directory, random.Random(seed + 99))
    victim = n - 1
    try:
        await _phase(
            client, "phase A: 3 writes with the full cluster",
            [("set", f"key-{i}", i) for i in range(3)], timeout,
        )
        print(f"killing replica {victim} (SIGKILL, no warning)", flush=True)
        await replicas[victim].kill()
        await _phase(
            client, f"phase B: 2 writes with {n - 1} replicas",
            [("set", f"key-{i}", i) for i in range(3, 5)], timeout,
        )
        print(f"restarting replica {victim} with --recover", flush=True)
        replicas.update(await spawn_replicas(directory, [victim], "--recover"))
        results = await _phase(
            client, "phase C: 1 write + 1 read with the recovered cluster",
            [("set", "key-5", 5), ("get", "key-0")], timeout,
        )
        _expect(results[-1] == ("value", 0), "read returned the wrong value")

        # State transfer (Section 6) runs concurrently with phase C;
        # wait for the restarted replica to announce it has caught up
        # before asking everyone for their final snapshot.
        await replicas[victim].wait_for("replica-recovered")

        print("stopping the cluster (SIGTERM)", flush=True)
        for party in sorted(replicas):
            await replicas[party].stop()
        # The restarted replica must have replayed the history it missed.
        _expect_full_history(replicas[victim])
        print(f"demo-cluster: ok (replica {victim} recovered the full history)")
    finally:
        for process in replicas.values():
            await process.kill()
        await client.network.close()


async def _demo_cluster_dkg(
    n: int, t: int, seed: int, directory: pathlib.Path, timeout: float
) -> None:
    """Dealerless demo: boot via DKG, then reconfigure the live cluster
    n -> n+1 -> n (add a member, then remove it) without stopping."""
    joiner = n
    print(f"provisioning bootstrap identities for n={n}, t={t} (NO dealer)",
          flush=True)
    provision_dkg_deployment(n, t, random.Random(seed), directory, io_timeout=timeout)
    print(f"spawning {n} replicas with --dkg (distributed key generation)",
          flush=True)
    replicas = await spawn_replicas(directory, range(n), "--dkg")
    for party in range(n):
        generated = await replicas[party].wait_for("replica-dkg")
        print(f"  replica {party}: keys from dealers {generated['qualified']}", flush=True)

    client = await attach_client(directory, random.Random(seed + 99))
    operator_rng = random.Random(seed + 7)

    async def reconfigure(action: str, epoch: int, members: int, **fields) -> None:
        """Order the signed change of ``joiner``'s membership that opens
        ``epoch``; returns once all ``members`` servers have entered it."""
        # Identity keys persist across epochs: party 0 signs every change.
        signer = keystore.load_party(
            directory / "server-0.json", client.public
        ).signing_key
        operation = reconfig.reconfigure_operation(
            action, epoch, 0, signer, operator_rng, party=joiner, **fields
        )
        results = await _phase(
            client,
            f"submitting ordered Reconfigure({action}, party={joiner}) -> epoch {epoch}",
            [operation], timeout,
        )
        _expect(
            results[0] == ("reconfig", "accepted", epoch),
            f"{action} operation rejected",
        )
        for party in range(members):
            entered = await replicas[party].wait_for("replica-epoch", epoch=epoch)
            print(f"  replica {party}: epoch {epoch}, n={entered['n']}", flush=True)
            # A member's pre-switch shares must fail under the new epoch's
            # verification values (a joiner held none to probe).
            _expect(
                party == joiner or entered.get("stale_shares_valid") == "False",
                f"stale shares still verify in epoch {epoch}",
            )

    try:
        await _phase(
            client, "phase A: 3 writes against the DKG-generated keys",
            [("set", f"key-{i}", i) for i in range(3)], timeout,
        )

        print(f"provisioning joiner {joiner} and spawning it with --join",
              flush=True)
        bundle, joiner_addr = admit_joiner(directory, joiner, operator_rng, client)
        replicas.update(await spawn_replicas(directory, [joiner], "--join"))

        await reconfigure(
            "add", 1, n + 1,
            verify_key=bundle.signing_key.verify_key.h,
            host=joiner_addr[0], port=joiner_addr[1],
        )
        await replicas[joiner].wait_for("replica-recovered")
        print(f"  replica {joiner} joined epoch 1 and state-transferred",
              flush=True)

        await _phase(
            client,
            f"phase B: 2 writes with n={n + 1} (client refetches membership)",
            [("set", f"key-{i}", i) for i in range(3, 5)], timeout,
        )
        _expect(client.epoch == 1, "client never adopted epoch 1")

        await reconfigure("remove", 2, n)
        await replicas[joiner].wait_for("replica-departed", epoch=2)
        print(f"stopping departed replica {joiner}", flush=True)
        await replicas[joiner].stop()

        results = await _phase(
            client, f"phase C: 1 write + 1 read back at n={n} (epoch 2)",
            [("set", "key-5", 5), ("get", "key-0")], timeout,
        )
        _expect(results[-1] == ("value", 0), "read returned the wrong value")
        _expect(
            client.epoch == 2 and client.epoch_refreshes >= 2,
            "client did not follow both epochs",
        )

        print("stopping the cluster (SIGTERM)", flush=True)
        for party in range(n):
            await replicas[party].stop()
        for party in range(n):
            _expect_full_history(replicas[party])
        print(f"demo-cluster: ok (dealerless boot, live {n}->{n + 1}->{n} "
              f"reconfiguration, epochs 0..2)")
    finally:
        for process in replicas.values():
            await process.kill()
        await client.network.close()


def demo_cluster(
    n: int = 4,
    t: int = 1,
    seed: int = 0,
    directory: str | pathlib.Path | None = None,
    keep: bool = False,
    timeout: float = 60.0,
    dkg: bool = False,
) -> int:
    """Run the end-to-end TCP cluster demo; returns a process exit code."""
    created = directory is None
    workdir = pathlib.Path(directory or tempfile.mkdtemp(prefix="repro-cluster-"))
    workdir.mkdir(parents=True, exist_ok=True)
    runner = _demo_cluster_dkg if dkg else _demo_cluster
    try:
        asyncio.run(runner(n, t, seed, workdir, timeout))
        return 0
    except _DemoFailed as failure:
        print(f"demo-cluster: FAILED ({failure})")
        return 1
    finally:
        if created and not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        elif keep:
            print(f"cluster state kept in {workdir}")
