"""Standing up a cluster: deployment directories, replica processes
and clients (docs/DEPLOYMENT.md).

:mod:`repro.net.runtime` is one process and its files; this module is
the operator around n of them.  The bring-up sequence is written once,
as three functions the chaos engine, the examples and the in-process
test fixtures call:

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
import signal
import sys
from collections.abc import Iterable
from typing import Any

from ..crypto import keystore
from ..crypto.dealer import CLIENT_BASE, SystemKeys, deal_system
from ..crypto.groups import small_group
from ..smr.client import ServiceClient
from .runtime import (
    CLUSTER_FILE,
    BootstrapFile,
    ClusterConfig,
    allocate_addresses,
    load_epoch,
    parse,
    provision_joiner,
)
from .transport import FaultPlan, TransportError, TransportNetwork

__all__ = [
    "admit_joiner",
    "attach_client",
    "deal_deployment",
    "spawn_replicas",
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

    async def wait_for(
        self, kind: str | tuple[str, ...], **match: object
    ) -> dict[str, str]:
        """The fields of the first ``kind`` event (or of any of a tuple
        of kinds) the child has printed (or prints within the
        deployment's ``ClusterConfig.io_timeout``, threaded through at
        spawn time) whose fields include ``match``."""
        kinds = (kind,) if isinstance(kind, str) else kind
        wanted = {name: str(value) for name, value in match.items()}
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.io_timeout
        while True:
            self._news.clear()
            for seen, fields in self.events:
                if seen in kinds and wanted.items() <= fields.items():
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
