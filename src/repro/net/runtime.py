"""One process of a deployment over the TCP transport, and its files.

Where :mod:`repro.net.transport` provides the authenticated links, this
module provides the *deployment shape* around them:

* the deployment directory's files besides the keystore: ``cluster.json``
  (:class:`ClusterConfig`), checkpoints, ``epoch.json``, bootstrap bundles;
* :class:`ReplicaHost` — one server process: keystore bundles from
  disk, a :class:`~repro.net.transport.TransportNetwork`, the
  :class:`~repro.core.runtime.ProtocolRuntime` and the service
  :class:`~repro.smr.replica.Replica`, with graceful SIGTERM shutdown,
  optional Section-6 crash recovery on startup, and the one transition
  that moves it between epochs;
* :func:`run_client_ops` — a client process: submits operations over
  TCP and awaits the threshold-signed answers.

Standing up a whole cluster is :mod:`repro.net.cluster`.  Everything
here is the operational counterpart of
:func:`repro.smr.service.build_service`, which wires the same objects to
the deterministic simulator instead.  See ``docs/DEPLOYMENT.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import pathlib
import random
import re
import signal
import socket
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..adversary.quorums import ThresholdQuorumSystem
from ..core.atomic_broadcast import AbcConfig
from ..core.protocol import Context, SessionId
from ..core.runtime import ProtocolRuntime
from ..crypto import dkg, keystore
from ..crypto.dealer import CLIENT_BASE, deal_channel_keys, is_server
from ..crypto.groups import SchnorrGroup, small_group
from ..crypto.hashing import hash_bytes
from ..crypto.lsss import threshold_scheme
from ..crypto.schnorr import SigningKey, keygen
from ..smr import reconfig
from ..smr.reconfig import EpochTombstone, epoch_service_session
from ..smr.replica import Replica
from ..smr.state_machine import KeyValueStore, StateMachine
from . import wire
from .transport import FaultPlan, TransportNetwork

__all__ = [
    "CLUSTER_FILE",
    "DEFAULT_IO_TIMEOUT",
    "EPOCH_FILE",
    "GENESIS_FILE",
    "LINE_KINDS",
    "BootstrapFile",
    "ClusterConfig",
    "Phase",
    "ReplicaHost",
    "allocate_addresses",
    "checkpoint_path",
    "dh_channel_key",
    "load_bootstrap",
    "load_checkpoint",
    "load_epoch",
    "load_genesis",
    "parse",
    "provision_dkg_deployment",
    "provision_joiner",
    "render",
    "run_client_ops",
    "save_epoch",
    "save_public",
    "serve_replica",
    "submit_reconfigure",
    "write_checkpoint",
]

CLUSTER_FILE = "cluster.json"
EPOCH_FILE = "epoch.json"
GENESIS_FILE = "public-epoch-0.json"  # epoch 0's public bundle, once left
FAULTS_FILE = "faults.json"  # a chaos run's fault plan (net/chaos.py)

# Default bound on every "wait for the cluster to say something" loop.
# Configurable per deployment through ``ClusterConfig.io_timeout`` (a
# chaos scenario's ``io_timeout``), because 30s is
# plenty on a laptop but flaky on a loaded CI machine or under
# injected faults.
DEFAULT_IO_TIMEOUT = 30.0


# -- cluster topology on disk -------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """The operational shape of a deployed cluster: the address map
    (party id -> host, port) plus the deployment-wide I/O deadline
    every process-level wait inherits."""

    addresses: dict[int, tuple[str, int]]
    io_timeout: float = DEFAULT_IO_TIMEOUT
    # Atomic-broadcast throughput knobs (docs/PERFORMANCE.md).  ``None``
    # means the protocol default — older cluster.json files load fine.
    abc_max_batch: int | None = None
    abc_pipeline_depth: int | None = None

    def save(self, path: str | pathlib.Path) -> None:
        data = {
            "addresses": {
                str(party): [host, port]
                for party, (host, port) in sorted(self.addresses.items())
            },
            "io_timeout": self.io_timeout,
        }
        for knob in ("abc_max_batch", "abc_pipeline_depth"):
            value = getattr(self, knob)
            if value is not None:
                data[knob] = value
        pathlib.Path(path).write_text(json.dumps(data, indent=1))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ClusterConfig":
        data = json.loads(pathlib.Path(path).read_text())

        def knob(name: str) -> int | None:
            value = data.get(name)
            return int(value) if value is not None else None

        return cls(
            addresses={
                int(party): (str(entry[0]), int(entry[1]))
                for party, entry in data["addresses"].items()
            },
            io_timeout=float(data.get("io_timeout", DEFAULT_IO_TIMEOUT)),
            abc_max_batch=knob("abc_max_batch"),
            abc_pipeline_depth=knob("abc_pipeline_depth"),
        )

    def abc_config(self) -> "AbcConfig | None":
        """The :class:`AbcConfig` these knobs describe, or None for the
        protocol defaults; raises ValueError on an out-of-range knob."""
        return AbcConfig.overriding(
            max_batch=self.abc_max_batch, pipeline_depth=self.abc_pipeline_depth
        )


def allocate_addresses(
    parties: list[int], host: str = "127.0.0.1"
) -> dict[int, tuple[str, int]]:
    """Pick a free localhost port per party (all sockets held open until
    every port is chosen, to avoid handing out the same one twice)."""
    sockets: list[socket.socket] = []
    addresses: dict[int, tuple[str, int]] = {}
    try:
        for party in parties:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            addresses[party] = (host, sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return addresses


# -- authenticated local checkpoints ------------------------------------------------
#
# A replica's delivered log is periodically persisted so a restart can
# replay most of its history from disk and only fetch the tail from
# peers (Section 6 recovery stays the source of truth).  The file is
# *authenticated*: the paper's adversary may control the machine
# between crash and restart, so an unauthenticated snapshot would let
# it rewrite history.  The MAC key is derived from the party's full
# channel keyring — forging a checkpoint requires compromising the
# party's entire key material, at which point it is simply corrupted.
# A checkpoint that fails authentication (or fails to parse) is
# REJECTED and recovery falls back to pure peer state transfer; the
# chaos engine's corrupted-snapshot fault asserts exactly this.


def checkpoint_path(directory: str | pathlib.Path, party: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"checkpoint-{party}.json"


def _checkpoint_key(party: int, channel_keys: dict[int, bytes]) -> bytes:
    material = [b"repro-checkpoint-v2", party.to_bytes(8, "big")]
    for peer in sorted(channel_keys):
        material.append(peer.to_bytes(8, "big"))
        material.append(channel_keys[peer])
    return hashlib.sha256(b"".join(material)).digest()


def write_checkpoint(
    directory: str | pathlib.Path,
    party: int,
    channel_keys: dict[int, bytes],
    entries: tuple,
    round_number: int,
) -> pathlib.Path:
    """Atomically persist the delivered log with an HMAC over its
    canonical wire encoding."""
    body = wire.dumps((tuple(entries), round_number))
    mac = hmac.new(_checkpoint_key(party, channel_keys), body, hashlib.sha256)
    # Atomic: a crash mid-write never half-updates.
    return keystore.atomic_write_text(
        checkpoint_path(directory, party),
        json.dumps({"party": party, "body": body.hex(), "mac": mac.hexdigest()}),
    )


def load_checkpoint(
    directory: str | pathlib.Path, party: int, channel_keys: dict[int, bytes]
) -> tuple[tuple, int] | None:
    """Load and authenticate a checkpoint; ``None`` if it is missing,
    malformed, or fails the MAC — the caller must treat all three the
    same way (recover purely from peers)."""
    path = checkpoint_path(directory, party)
    try:
        data = json.loads(path.read_text())
        body = bytes.fromhex(data["body"])
        tag = bytes.fromhex(data["mac"])
    except (OSError, ValueError, TypeError, KeyError):
        return None
    expected = hmac.new(
        _checkpoint_key(party, channel_keys), body, hashlib.sha256
    ).digest()
    if not hmac.compare_digest(tag, expected):
        return None
    try:
        entries, round_number = wire.loads(body)
    except (wire.WireError, ValueError):
        return None
    if not isinstance(entries, tuple) or not isinstance(round_number, int):
        return None
    return entries, round_number


# -- dealerless bootstrap and epochs ------------------------------------------------
#
# A DKG deployment has no dealer output to distribute.  The operator
# instead provisions each party a *bootstrap* bundle — identity signing
# key, every server's verify key, pairwise channel keys: the
# authenticated-channel assumption of the model and nothing more — and
# the cluster generates its threshold keys itself (crypto/dkg.py).  The
# epoch file records which committed `Reconfigure` generation the
# on-disk keystore belongs to; the genesis record is the configuration
# every replay of the history starts from.


def load_epoch(directory: str | pathlib.Path) -> int:
    """The keystore's epoch; 0 when absent (dealer-era deployments)."""
    try:
        text = (pathlib.Path(directory) / EPOCH_FILE).read_text()
        return int(json.loads(text)["epoch"])
    except (OSError, ValueError, TypeError, KeyError):
        return 0


def save_epoch(directory: str | pathlib.Path, epoch: int) -> None:
    keystore.atomic_write_text(
        pathlib.Path(directory) / EPOCH_FILE, json.dumps({"epoch": epoch})
    )


def save_public(path: pathlib.Path, public) -> None:
    keystore.atomic_write_text(
        path, json.dumps(keystore.public_to_dict(public), indent=1)
    )


def load_genesis(
    directory: str | pathlib.Path, epoch: int, public
) -> reconfig.Membership:
    """The membership a replay of the history starts from: ``public``
    itself while the keystore is at epoch 0, else the genesis record
    (:data:`GENESIS_FILE`).  A keystore past epoch 0 without one cannot
    replay its history, so it refuses to start."""
    if epoch == 0:
        return reconfig.Membership.of(0, public)
    path = pathlib.Path(directory) / GENESIS_FILE
    try:
        return reconfig.Membership.of(0, keystore.load_public(path))
    except keystore.KeystoreError as exc:
        raise keystore.KeystoreError(
            f"epoch {epoch} needs the genesis record {path}: {exc}"
        ) from exc


@dataclass(frozen=True)
class BootstrapFile:
    """One party's on-disk pre-key identity (``bootstrap-<i>.json``):
    ``verify_keys`` is the PKI (party -> identity ``h``) — every server
    of a dealerless boot, only its own key for a joiner."""

    party: int
    n: int
    t: int
    group: SchnorrGroup
    signing_key: SigningKey
    channel_keys: dict[int, bytes]
    verify_keys: dict[int, int]


def bootstrap_path(directory: str | pathlib.Path, party: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"bootstrap-{party}.json"


def save_bootstrap(directory: str | pathlib.Path, bundle: BootstrapFile) -> None:
    data = {
        "version": 2,
        "party": bundle.party,
        "n": bundle.n,
        "t": bundle.t,
        "group": {
            "p": str(bundle.group.p),
            "q": str(bundle.group.q),
            "g": str(bundle.group.g),
        },
        "signing_key": str(bundle.signing_key.x),
        "channel_keys": {
            str(peer): key.hex() for peer, key in sorted(bundle.channel_keys.items())
        },
        "verify_keys": {
            str(peer): str(h) for peer, h in sorted(bundle.verify_keys.items())
        },
    }
    keystore.atomic_write_text(
        bootstrap_path(directory, bundle.party), json.dumps(data, indent=1)
    )


def load_bootstrap(directory: str | pathlib.Path, party: int) -> BootstrapFile:
    try:
        data = json.loads(bootstrap_path(directory, party).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise keystore.KeystoreError(f"cannot read bootstrap bundle: {exc}") from exc
    group = SchnorrGroup(
        p=int(data["group"]["p"]),
        q=int(data["group"]["q"]),
        g=int(data["group"]["g"]),
    )
    return BootstrapFile(
        party=int(data["party"]),
        n=int(data["n"]),
        t=int(data["t"]),
        group=group,
        signing_key=SigningKey(group=group, x=int(data["signing_key"])),
        channel_keys={
            int(peer): bytes.fromhex(key)
            for peer, key in data.get("channel_keys", {}).items()
        },
        # A version-1 bundle has none: a dkg boot refuses it.
        verify_keys={
            int(peer): int(h) for peer, h in data.get("verify_keys", {}).items()
        },
    )


def provision_dkg_deployment(
    n: int,
    t: int,
    rng: random.Random,
    directory: str | pathlib.Path,
    **cluster: Any,
) -> None:
    """Operator-side provisioning for a dealerless cluster.

    Writes one ``bootstrap-<i>.json`` per server (its identity key and
    every server's verify key), one client's
    ``client-<id>.json`` channel bundle and ``cluster.json`` with a
    free localhost port for each — all ``run-replica --dkg`` needs.
    ``cluster`` are the other :class:`ClusterConfig` fields.
    Unlike :func:`deal_system`, no threshold secret exists anywhere —
    compromising one bundle corrupts exactly one party.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    group = small_group()
    identities = list(range(n)) + [CLIENT_BASE]
    keyring = deal_channel_keys(identities, rng)
    signing_keys = [keygen(rng, group) for _ in range(n)]
    verify_keys = {party: key.verify_key.h for party, key in enumerate(signing_keys)}
    for party in range(n):
        bundle = BootstrapFile(
            party=party,
            n=n,
            t=t,
            group=group,
            signing_key=signing_keys[party],
            channel_keys=keyring[party],
            verify_keys=verify_keys,
        )
        save_bootstrap(directory, bundle)
    _write_client(directory, CLIENT_BASE, keyring[CLIENT_BASE])
    ClusterConfig(allocate_addresses(identities), **cluster).save(
        directory / CLUSTER_FILE
    )


def _write_client(
    directory: pathlib.Path, cid: int, channel_keys: dict[int, bytes]
) -> None:
    keystore.atomic_write_text(
        directory / f"client-{cid}.json",
        json.dumps(keystore.client_to_dict(cid, channel_keys), indent=1),
    )


def provision_joiner(
    directory: str | pathlib.Path, party: int, rng: random.Random
) -> BootstrapFile:
    """Provision a replica that will *join* a running cluster.

    The joiner gets an identity key (its verify key rides inside the
    signed ``Reconfigure`` op) and fresh channel keys with every known
    client — the existing client bundles are updated in place.  Channel
    keys with the current *members* need no provisioning at all: both
    sides derive them Diffie-Hellman style from identity keys
    (:func:`dh_channel_key`).  At epoch 0 the live bundle is the
    genesis record the joiner replays the history from, so it is saved
    as such.
    """
    directory = pathlib.Path(directory)
    public = keystore.load_public(directory / "public.json")
    if load_epoch(directory) == 0:
        save_public(directory / GENESIS_FILE, public)
    signing_key = keygen(rng, public.group)
    channel_keys: dict[int, bytes] = {}
    for path in sorted(directory.glob("client-*.json")):
        try:
            cid, existing = keystore.load_client(path)
        except keystore.KeystoreError:
            continue
        key = bytes(rng.getrandbits(8) for _ in range(32))
        channel_keys[cid] = key
        existing[party] = key
        _write_client(directory, cid, existing)
    bundle = BootstrapFile(
        party=party,
        n=public.n + 1,
        t=getattr(public.quorum, "t", 0),
        group=public.group,
        signing_key=signing_key,
        channel_keys=channel_keys,
        verify_keys={party: signing_key.verify_key.h},
    )
    save_bootstrap(directory, bundle)
    return bundle


def dh_channel_key(group: SchnorrGroup, secret_x: int, peer_h: int) -> bytes:
    """Pairwise channel key from identity keys (hashed Diffie-Hellman).

    Both endpoints compute ``H(g^{xy})`` — the joiner from its secret
    and a member's public verify key, the member from its secret and
    the joiner's verify key carried in the ordered ``Reconfigure`` op.
    """
    return hash_bytes("dh-channel", pow(peer_h, secret_x, group.p))


# -- what a server process says on stdout -------------------------------------------
#
# One line per event, ``<kind> party=<p> <field>=<value> ...``: written
# only by :meth:`ReplicaHost.emit` through :func:`render`, read only
# through :func:`parse` (``net/cluster.py`` waits on kinds, not on
# substrings).  The table is the whole vocabulary: kind -> the fields
# after ``party=``, in print order; one left out is not printed.
# ``snapshot`` (a repr, spaces included) runs to the end of its line.

LINE_KINDS: dict[str, tuple[str, ...]] = {
    "listening": ("host", "port", "recovering"),  # its own, older shape
    "replica-checkpoint": ("status",),
    "replica-recovered": ("executed",),
    "replica-abc-stats": ("rounds", "delivered", "mean_batch", "occupancy"),
    "replica-final": ("executed", "byzantine", "snapshot"),
    "replica-dkg": ("qualified",),
    "replica-dkg-retry": ("attempt",),
    "replica-join-retry": ("attempt",),
    "replica-reshare-retry": ("epoch", "attempt"),
    "replica-epoch": ("epoch", "n", "stale_shares_valid"),
    "replica-stale-epoch": ("epoch", "n"),
    "replica-departed": ("epoch",),
    "replica-retired": ("epoch",),
}
_LISTENING = re.compile(
    r"replica (?P<party>\d+) listening on (?P<host>\S+):(?P<port>\d+)"
    r"(?: \((?P<recovering>recovering)\))?"
)


def render(kind: str, party: int, **fields: object) -> str:
    """The stdout line for one event of ``kind`` at ``party``."""
    names = LINE_KINDS[kind]
    unknown = fields.keys() - set(names)
    if unknown:
        raise ValueError(f"{kind} has no field {sorted(unknown)}")
    if kind == "listening":
        suffix = " (recovering)" if fields.get("recovering") else ""
        return f"replica {party} listening on {fields['host']}:{fields['port']}{suffix}"
    words = [kind, f"party={party}"]
    for name in names:
        if name in fields:
            words.append(f"{name}={fields[name]}")
    return " ".join(words)


def parse(line: str) -> tuple[str, dict[str, str]] | None:
    """``(kind, fields)`` of a line :func:`render` wrote — every value
    as the text it was printed as, ``party`` among them — or ``None``
    for anything else a process may print (tracebacks, warnings)."""
    listening = _LISTENING.fullmatch(line)
    if listening is not None:
        return "listening", {k: v for k, v in listening.groupdict().items() if v}
    kind, _, rest = line.partition(" ")
    if kind == "listening" or kind not in LINE_KINDS:
        return None
    fields: dict[str, str] = {}
    while rest:
        name, _, value = rest.partition("=")
        if name == "snapshot":
            fields[name] = value
            break
        if name not in ("party", *LINE_KINDS[kind]):
            return None
        fields[name], _, rest = value.partition(" ")
    return kind, fields


# -- one server process -------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """Where a host stands between epochs (docs/RECONFIGURATION.md):
    ``booting`` (key generation or a join under way, no replica yet) →
    ``serving`` → ``resharing`` (an ordered ``Reconfigure`` opened
    ``target``; the session's broadcast is closed) → ``stalled`` (the
    watchdog had to retry, so the peers may have finished without us:
    their signed membership votes are accepted) → ``serving`` at the
    new epoch, or ``retired`` once a missed epoch turns out to have
    removed us.
    ``target`` is the epoch being entered, ``None`` when none is."""

    name: str
    target: int | None = None


SERVING = Phase("serving")
RETIRED = Phase("retired")


class ReplicaHost:
    """One server: keystore + transport + protocol runtime + replica.

    Optional chaos surface:

    * ``faults`` — a :class:`~repro.net.transport.FaultPlan` injected
      into the transport (when ``None``, a plan serialized by the chaos
      engine as ``faults.json`` in the deployment directory is loaded
      automatically, so subprocess replicas pick up the scenario);
    * ``byzantine`` — host a corrupted party instead of an honest one
      (a behavior name understood by
      :func:`repro.net.chaos.byzantine_node`);
    * ``journal`` — append every executed operation to
      ``journal/exec-<party>.jsonl`` for the chaos safety checker;
    * checkpoints — when ``checkpoint_every > 0`` the delivered log is
      persisted (authenticated) every that-many executions and on
      graceful shutdown, and a restart with ``recover=True`` preloads
      it before asking peers for the tail.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        party: int,
        state_machine: StateMachine | None = None,
        causal: bool = False,
        seed: int | None = None,
        faults: FaultPlan | None = None,
        byzantine: str | None = None,
        journal: bool = False,
        checkpoint_every: int = 0,
        dkg_boot: bool = False,
        join: bool = False,
    ) -> None:
        directory = pathlib.Path(directory)
        self.directory = directory
        self.party = party
        if (dkg_boot or join) and (byzantine is not None or causal):
            raise ValueError("dkg/join hosts must be honest, non-causal replicas")
        cluster = ClusterConfig.load(directory / CLUSTER_FILE)
        self.io_timeout = cluster.io_timeout
        self._abc_config = cluster.abc_config()
        self._state_machine = state_machine or KeyValueStore()
        self._causal = causal
        self.epoch = 0
        self.phase = SERVING
        self._bootstrap: BootstrapFile | None = None
        # Signed membership votes for an epoch newer than ours, keyed
        # like the client's: (epoch, canonical public json) -> voters.
        self._stale_votes: dict[tuple[int, str], set[int]] = {}
        if dkg_boot:
            bundle = self._bootstrap = load_bootstrap(directory, party)
            # The PKI is all a dealerless epoch 0 trusts: every server's
            # identity key, ours among them.
            pki = bundle.verify_keys
            if sorted(pki) != list(range(bundle.n)) or (
                pki.get(party) != bundle.signing_key.verify_key.h
            ):
                raise keystore.KeystoreError(
                    f"bootstrap bundle of party {party} carries no valid PKI "
                    "(version 2 lists every server's verify key)"
                )
            self.public = dkg.BootstrapPublic(
                n=bundle.n, quorum=ThresholdQuorumSystem(n=bundle.n, t=bundle.t)
            )
            self.membership = reconfig.Membership(
                0, bundle.group, self.public.quorum,
                tuple(pki[member] for member in range(bundle.n)),
            )
            self.keys = dkg.BootstrapKeys(
                party, bundle.signing_key, dict(bundle.channel_keys)
            )
            self.phase = Phase("booting", 0)
        elif join:  # a live cluster: the previous epoch's public bundle
            bundle = load_bootstrap(directory, party)
            self.public = keystore.load_public(directory / "public.json")
            self.epoch = load_epoch(directory)
            self.keys = dkg.BootstrapKeys(
                party, bundle.signing_key, dict(bundle.channel_keys)
            )
            self._derive_channel_keys(self.public)
            self.phase = Phase("booting", self.epoch + 1)
        else:
            self.public = keystore.load_public(directory / "public.json")
            self.keys = keystore.load_party(
                directory / f"server-{party}.json", self.public
            )
            self.epoch = load_epoch(directory)
        if not dkg_boot:
            # The configuration of this incarnation's *executed* history:
            # genesis, advanced only by the Reconfigure operations it
            # executes (_intercept), live and replayed alike.
            self.membership = load_genesis(directory, self.epoch, self.public)
        if faults is None and (directory / FAULTS_FILE).exists():
            # Only a chaos run loads the chaos engine.
            from .chaos import load_fault_plan  # lazy: chaos imports us

            faults = load_fault_plan(directory)
        self.network = TransportNetwork(
            party, cluster.addresses, self.keys.channel_keys, faults=faults
        )
        self.byzantine = byzantine
        self.checkpoint_status = "absent"
        self._checkpoint_every = checkpoint_every
        self._executions = 0
        self._journal = None
        seed = seed if seed is not None else party
        if byzantine is None:
            self.runtime: ProtocolRuntime | None = ProtocolRuntime(
                party, self.network, self.public, self.keys, seed=seed
            )
            self.network.attach(party, self.runtime)
            self.replica: Replica | None = None
            if self.phase == SERVING:
                self.replica = Replica(
                    self._state_machine,
                    causal=causal,
                    abc_config=self._abc_config,
                )
                self._install_replica_hooks()
                self.runtime.spawn(epoch_service_session(self.epoch), self.replica)
        else:
            from .chaos import byzantine_node  # lazy: chaos imports us

            node, self.runtime, self.replica = byzantine_node(
                byzantine, self.network, party, self.public, self.keys,
                seed=seed, state_machine=self._state_machine,
                causal=causal,
            )
            self.network.attach(party, node)
            if self.replica is not None:
                self._observe_replica()
        if journal and byzantine is None:
            journal_dir = directory / "journal"
            journal_dir.mkdir(exist_ok=True)
            # "w": the journal is this incarnation's executed sequence;
            # recovery replays the full history into it, so truncating
            # keeps it a single consistent prefix-checkable log.
            self._journal = open(
                journal_dir / f"exec-{party}.jsonl", "w", encoding="utf-8"
            )

    def _install_replica_hooks(self) -> None:
        """Wire the host's observation and reconfiguration hooks into
        the (honest) replica instance."""
        self._observe_replica()
        if self._causal:
            return  # reconfiguration requires the ordered plaintext path
        self.replica.intercept = self._intercept
        self.replica.on_membership_info = self._on_stale_info
        self.replica.membership_info = reconfig.signed_membership_info(
            self.party,
            self.epoch,
            keystore.public_to_dict(self.public),
            self.keys.signing_key,
            self.runtime.rng,
        )

    def _observe_replica(self) -> None:
        """The hooks every hosted replica gets, a Byzantine one too."""
        self.replica.on_execute = self._on_execute
        self.replica.on_recovered = lambda: self.emit(
            "replica-recovered", executed=len(self.replica.executed)
        )

    def emit(self, kind: str, **fields: object) -> None:
        """Say one event on stdout — this process's only ``print``."""
        print(render(kind, self.party, **fields), flush=True)

    def _on_execute(self, request, result, rnd) -> None:
        self._executions += 1
        if self._journal is not None:
            self._journal.write(
                json.dumps(
                    {
                        "i": self._executions,
                        "client": request.client,
                        "nonce": request.nonce,
                        "op": list(request.operation),
                        "round": rnd,
                    }
                )
                + "\n"
            )
            self._journal.flush()
        if self._checkpoint_every and self._executions % self._checkpoint_every == 0:
            self.write_checkpoint()

    def write_checkpoint(self) -> pathlib.Path | None:
        """Persist the authenticated delivered log (honest hosts only)."""
        if self.replica is None or self.replica.causal or self.byzantine:
            return None
        return write_checkpoint(
            self.directory,
            self.party,
            self.keys.channel_keys,
            tuple(self.replica.abc.delivered_log),
            self.replica.abc.round,
        )

    async def start(self, recover: bool = False) -> None:
        await self.network.start()
        if self.phase.name == "booting":
            # No threshold keys anywhere yet?  Generate them; else join.
            if isinstance(self.public, dkg.BootstrapPublic):
                self._start_dkg()
            else:
                self._start_join()
            return
        if recover and self.replica is not None:
            ctx = Context(self.runtime, epoch_service_session(self.epoch))
            loaded = load_checkpoint(
                self.directory, self.party, self.keys.channel_keys
            )
            # Host-owned startup state, written once before any handler
            # runs — not round/epoch-guarded protocol state.
            if loaded is not None:
                self.replica.preload_log(ctx, loaded[0])
                self.checkpoint_status = "loaded"  # repro: noqa-RL005 single-owner startup state
            elif checkpoint_path(self.directory, self.party).exists():
                # Present but unauthenticated/corrupted: reject it and
                # recover purely from peers.
                self.checkpoint_status = "rejected"  # repro: noqa-RL005 single-owner startup state
                self.network.trace.bump("chaos.checkpoint_rejected")
            self.replica.begin_recovery(ctx)

    # -- key-material sessions: boot, join, reshare --------------------------------

    def _start_dkg(self) -> None:
        """Dealerless bootstrap: run the key-generation session; the
        replica spawns once the cluster's threshold keys exist."""
        bundle = self._bootstrap
        scheme = threshold_scheme(bundle.n, bundle.t, bundle.group.q)
        self._run_ladder(
            0,
            "replica-dkg-retry",
            lambda: dkg.key_generation(
                bundle.group, scheme, self.public.quorum, bundle.verify_keys,
                self.party, self.runtime.rng,
            ),
            self._complete_reshare,
        )

    def _start_join(self) -> None:
        """A joining replica participates in the resharing for the next
        epoch as a pure receiver; its replica spawns at the new epoch's
        session once the resharing completes."""
        public = self.public
        if getattr(public.quorum, "t", None) is None:
            raise ValueError("joining requires a threshold quorum deployment")
        if self.party != public.n:
            raise ValueError(f"joiner must take the next free id {public.n}")
        current = reconfig.Membership.of(self.epoch, public)
        joined = current.successor(
            current.verify_keys + (self.keys.signing_key.verify_key.h,)
        )
        self._run_ladder(
            joined.epoch,
            "replica-join-retry",
            lambda: self._resharing(joined),
            self._complete_reshare,
        )

    def _start_reshare(self, request: "reconfig.ReconfigureRequest") -> None:
        """Open the epoch an accepted ``Reconfigure`` asks for (the one
        ``self.membership`` now stands at): run the resharing."""
        public, membership = self.public, self.membership
        target = request.epoch
        if request.action == "add":
            # The joiner becomes reachable: address from the ordered op
            # (authoritative — an add that reuses a previously removed
            # id must not keep that id's stale address), channel key
            # derived Diffie-Hellman style from identities.
            joiner_key = dh_channel_key(
                public.group, self.keys.signing_key.x, request.verify_key
            )
            self.network.admit_peer(
                request.party, (request.host, request.port), joiner_key
            )
            # The reshare protocol masks the joiner's subshares with the
            # same pairwise key, so the keystore bundle needs it too.
            self.keys.channel_keys[request.party] = joiner_key
        # We are being retired: deal our contribution so the others can
        # reshare, but take no new keys.  We keep answering the old
        # epoch's session until the operator stops us; after the switch
        # our shares are useless against the re-randomized verification
        # values (tests/crypto/test_dkg.py proves it).  A departed
        # replica never enters ``target``: its ladder settles when the
        # stale-membership probe tells it that it retired.
        departing = request.action == "remove" and request.party == self.party
        self.phase = Phase("resharing", target)
        self._run_ladder(
            target,
            "replica-reshare-retry",
            lambda: self._resharing(membership),
            None if departing else self._complete_reshare,
            epoch=target,
        )
        if departing:
            self.emit("replica-departed", epoch=target)

    def _resharing(self, membership: reconfig.Membership) -> dkg.VerifiableResharing:
        """The session that moves the current sharing onto the members
        of ``membership``.  Members deal their old subshares; a joiner
        holds none yet and only receives."""
        public = self.public
        old_shares = ()
        if not isinstance(self.keys, dkg.BootstrapKeys):
            old_shares = (self.keys.coin.subshares, self.keys.decryption.subshares)
        return dkg.VerifiableResharing(
            public.group,
            public.access_scheme,
            threshold_scheme(membership.n, membership.quorum.t, public.group.q),
            public.coin.verification,
            public.encryption.verification,
            tuple(range(membership.n)),
            membership.quorum,
            dict(enumerate(membership.verify_keys)),
            *old_shares,
        )

    def _run_ladder(
        self,
        target: int,
        retry_kind: str,
        make_protocol: Callable[[], object],
        complete: Callable[[object, "dkg.DkgOutput"], None] | None,
        **retry_fields: object,
    ) -> None:
        """Run the key-material session that opens epoch ``target`` —
        the key generation for epoch 0, a resharing for any later one —
        and walk the retry ladder until the host has moved on.

        A session that neither completes nor settles after its flush
        (the conditional-agreement stall of :mod:`repro.crypto.dkg`) is
        respawned under the next attempt's tag.  Every host walks the
        same ladder on the same ``io_timeout``-derived schedule, so
        attempts line up; earlier attempts stay spawned so a session
        that completed at *any* party can still complete late at the
        others.  ``complete(protocol, output)`` turns the first output
        into the new epoch (``None``: this host deals, takes no keys).
        """
        base = "reshare" if target else "boot"

        def rung(attempt: int) -> None:
            tag = (base, attempt) if attempt else base
            session = (
                dkg.reshare_session(target, tag) if target else dkg.dkg_session(tag)
            )
            if attempt:
                self.emit(retry_kind, **retry_fields, attempt=attempt)
                if self.phase.name != "booting":
                    # Peers may have completed this epoch without us
                    # (divergent flush): probe for their signed
                    # membership record so the stale-adoption path can
                    # rescue this replica if so.
                    self.phase = Phase("stalled", target)
                    Context(
                        self.runtime, epoch_service_session(self.epoch)
                    ).broadcast(reconfig.MembershipQuery(known_epoch=self.epoch))
            protocol = make_protocol()

            def deliver(output: object) -> None:
                # Malformed, or a slower attempt finishing after the
                # epoch was entered (or this replica retired).
                if isinstance(output, dkg.DkgOutput) and self.phase.target == target:
                    complete(protocol, output)

            self.runtime.spawn(
                session, protocol, on_output=deliver if complete else None
            )
            self._watch_flush(
                session,
                settled=lambda: self.phase.target != target,
                retry=lambda: rung(attempt + 1),
            )

        rung(0)

    # -- two ways to new keys, one way into the epoch ------------------------------

    def _complete_reshare(
        self, protocol: dkg.VerifiableResharing, output: dkg.DkgOutput
    ) -> None:
        """The session for ``phase.target`` yielded this party's new
        shares (a joiner's first ones, or at epoch 0 a dealerless
        cluster's first ones)."""
        target = self.phase.target
        new_public = dkg.build_public_keys(
            protocol.group,
            protocol.new_scheme,
            protocol.new_quorum,
            len(protocol.new_members),
            output,
        )
        if not target:
            # Bootstrap keys become threshold keys.  Every member writes
            # the identical canonical public bundle (atomic replace makes
            # the concurrent writes safe) and its own secret bundle; from
            # here on the directory is indistinguishable from a dealt one.
            self._enter_epoch(
                0, new_public, self._party_keys(new_public, output), "replica-dkg",
                qualified=",".join(str(p) for p in output.qualified),
            )
            return
        # Probe: a coin share from the *pre-switch* keys must fail under
        # the freshly randomized verification values (this is what makes
        # a departed replica's shares useless).
        entered: dict[str, object] = {"epoch": target, "n": new_public.n}
        old_coin = getattr(self.keys, "coin", None)
        if old_coin is not None:
            try:
                stale = old_coin.share_for(("epoch-probe", target), self.runtime.rng)
                entered["stale_shares_valid"] = new_public.coin.verify_share(stale)
            except (KeyError, ValueError):
                entered["stale_shares_valid"] = False
        self._enter_epoch(
            target, new_public, self._party_keys(new_public, output), "replica-epoch",
            # A joiner has executed nothing yet: state transfer from the
            # checkpointed history (Section 6) on the new session.
            state_transfer=self.replica is None,
            **entered,
        )

    def _party_keys(self, public, output: dkg.DkgOutput):
        """This party's bundle under a session's output: new shares,
        the identity and channel keys it already has."""
        return dkg.build_party_keys(
            self.party,
            public,
            self.keys.signing_key,
            output,
            channel_keys=dict(self.keys.channel_keys),
        )

    def _rejoin(self, target: int, new_public) -> None:
        """Enter a newer epoch whose resharing we missed entirely, on
        the word of an honest-containing set of members.

        Our threshold share material predates the re-randomization, so
        it stays useless until the next refresh epoch; identity and
        channel keys persist, though, so the replica still
        authenticates, orders, executes and state-transfers — degraded
        but consistent rather than stalled at a dead session.
        """
        if self.party >= new_public.n:
            # The epoch we missed removed us.  Stop the retry ladder —
            # the peers will never spawn our resharing session.
            self.phase = RETIRED
            self.emit("replica-retired", epoch=target)
            return
        # Members admitted while we were down (same construction the
        # resharing used).
        self.network.channel_keys.update(self._derive_channel_keys(new_public))
        new_keys = keystore.party_from_dict(
            keystore.party_to_dict(self.keys), new_public
        )
        self._enter_epoch(
            target, new_public, new_keys, "replica-stale-epoch",
            # Fills in everything ordered while we were away.
            state_transfer=True,
            epoch=target, n=new_public.n,
        )

    def _derive_channel_keys(self, public) -> dict[int, bytes]:
        """Add to our bundle, and return, a channel key for every member
        of ``public`` we share none with yet: both ends derive it from
        identity keys (:func:`dh_channel_key`), no provisioning."""
        derived = {
            member: dh_channel_key(
                public.group, self.keys.signing_key.x, verify_key.h
            )
            for member, verify_key in public.verify_keys.items()
            if member != self.party and member not in self.keys.channel_keys
        }
        self.keys.channel_keys.update(derived)
        return derived

    def _enter_epoch(
        self,
        target: int,
        new_public,
        new_keys,
        kind: str,
        *,
        state_transfer: bool = False,
        **fields: object,
    ) -> None:
        """The one way into an epoch.

        Every entry — key generation, a completed resharing, a voted
        configuration — persists keystore, party bundle and epoch file
        *before* it swaps keys, so a replica killed at any instant
        restarts into a directory that describes one epoch.  ``kind``
        and ``fields`` are the entry's stdout record; ``state_transfer``
        asks for Section-6 recovery on the new session (we executed less
        than was ordered).
        """
        old_epoch = self.epoch
        # Epoch 0 of a dealerless boot closes nothing: there is no
        # earlier configuration to keep and no session to tombstone.
        closing = not isinstance(self.public, dkg.BootstrapPublic)
        if closing and old_epoch == 0:
            # Leaving epoch 0: its configuration becomes the genesis
            # record every later replay of the history starts from.
            save_public(self.directory / GENESIS_FILE, self.public)
        save_public(self.directory / "public.json", new_public)
        keystore.atomic_write_text(
            self.directory / f"server-{self.party}.json",
            json.dumps(keystore.party_to_dict(new_keys), indent=1),
        )
        save_epoch(self.directory, target)
        self.public = self.runtime.public = new_public
        self.keys = self.runtime.keys = new_keys
        self.epoch = target
        self.phase = SERVING
        # Members the closed epochs retired (an ordered remove is final
        # and always takes the highest id): drop address, channel key
        # and connection state so a later add reusing the id starts
        # clean and broadcasts stop dialing a dead replica.  The clients
        # in the address book are not members: they stay.
        for member in sorted(self.network.addresses):
            if is_server(member) and member >= new_public.n:
                self.network.forget_peer(member)
        had_replica = self.replica is not None
        if not had_replica:
            self.replica = Replica(self._state_machine, abc_config=self._abc_config)
        self._install_replica_hooks()
        if closing:
            # Close every prior epoch: the old session's replica becomes
            # a tombstone, and older tombstones learn the newest record.
            info = self.replica.membership_info
            old_session = epoch_service_session(old_epoch)
            self.runtime.instances.pop(old_session, None)
            self.runtime.spawn(old_session, EpochTombstone(info))
            for epoch in range(old_epoch):
                instance = self.runtime.instances.get(epoch_service_session(epoch))
                if isinstance(instance, EpochTombstone):
                    instance.info = info
        ctx = Context(self.runtime, epoch_service_session(target))
        if had_replica:
            # Reopen the broadcast here, at the round after the old
            # session's last: its queue (the closing round's tail first)
            # rides that round, and rounds a stale adoption abandoned in
            # flight are re-proposed.  Before the spawn, which hands the
            # replica what peers already sent on this session.
            self.replica.abc.rebase(ctx)
        self.runtime.spawn(ctx.session, self.replica)
        self.emit(kind, **fields)
        if state_transfer:
            self.replica.begin_recovery(ctx)

    # -- ordered reconfiguration and membership votes ------------------------------

    def _intercept(self, request) -> object | None:
        """Replica hook: consume ``Reconfigure`` operations.

        One rule, live and replayed alike, so the verdict is a function
        of the agreed history and never of timing or of this disk:
        :func:`reconfig.next_membership` against ``self.membership``.
        An accepted operation advances it; if it opens an epoch this
        host has not entered (live, or replayed after a kill
        mid-resharing) it is the last operation the session orders
        (``AtomicBroadcast.close``), so every replica enters the new
        session at the same round, and the resharing starts once the
        round's delivery has returned.  The application state machine
        never sees it.
        """
        if reconfig.parse_reconfigure(request.operation) is None:
            return None  # an ordinary application operation
        step = reconfig.next_membership(request.operation, self.membership)
        if step is None:
            return ("reconfig", "rejected", self.membership.epoch)
        accepted, self.membership = step
        if accepted.epoch > self.epoch:
            # Peer contributions sent while we were down are
            # retransmitted by the transport and buffered by the
            # runtime, so a late spawn still completes.
            self.replica.abc.close(lambda: self._start_reshare(accepted))
        return ("reconfig", "accepted", accepted.epoch)

    def _on_stale_info(self, sender: int, info: object) -> None:
        """A RecoverQuery we sent came back with the signed membership
        record of a newer epoch: the cluster moved on while this replica
        was down.  Adopted by the rule clients use,
        :func:`reconfig.adopt_membership`.

        While a resharing is in flight the votes are ignored — unless
        the flush watchdog marked it stalled, in which case the peers
        may have completed the epoch without us and this is the way
        back in (degraded: our share material missed the refresh)."""
        if self.phase.name not in ("serving", "stalled"):
            return
        adopted = reconfig.adopt_membership(
            self._stale_votes, self.public, self.epoch, sender, info
        )
        if adopted is not None:
            self._rejoin(*adopted)

    # -- the flush watchdog ---------------------------------------------------------

    def _watch_flush(
        self,
        session: SessionId,
        settled: Callable[[], bool],
        retry: Callable[[], None],
    ) -> None:
        """Liveness hatch for a bootstrap/resharing session.

        Flushing is a one-shot, idempotent escape hatch — it only expels
        contributors that never delivered — and the broadcast is closed
        for the whole reshare, so the service is unavailable until the
        session settles.  The flush therefore fires after an eighth of
        the deployment I/O budget (scaled, never capped: slow links and
        large n stretch it proportionally) so a crashed contributor
        costs availability on the order of seconds, not the full
        budget.  Uncoordinated flushes can still settle hosts on
        divergent qualified sets — conditional agreement then leaves
        the session with no ready quorum.  So once a full I/O budget
        has passed in silence ``retry`` respawns the protocol under a
        fresh session tag, exactly as dkg.py prescribes.  ``settled``
        reports success recorded outside the session result (the epoch
        already entered)."""

        def is_settled() -> bool:
            return self.runtime.result(session) is not None or settled()

        async def watch() -> None:
            await asyncio.sleep(self.io_timeout / 8)
            if is_settled():
                return
            instance = self.runtime.instances.get(session)
            flush = getattr(instance, "flush", None)
            if flush is not None:
                flush(Context(self.runtime, session))
            await asyncio.sleep(self.io_timeout * 7 / 8)
            if is_settled():
                return
            retry()

        # A raise inside flush() or retry() is counted, kept in
        # network.errors and printed, not a ladder ended without a trace.
        self.network.spawn(watch(), "host.task_errors")

    async def close(self) -> None:
        await self.network.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None  # repro: noqa-RL005 idempotent shutdown, single owner


async def serve_replica(
    directory: str | pathlib.Path,
    party: int,
    recover: bool = False,
    byzantine: str | None = None,
    journal: bool = False,
    checkpoint_every: int = 0,
    dkg_boot: bool = False,
    join: bool = False,
) -> int:
    """Run one replica (``repro run-replica``) until SIGTERM/SIGINT,
    then print its ``replica-abc-stats`` and ``replica-final`` lines:
    rounds, batching, executed count and state snapshot, which the
    benchmark's TCP harness reads."""
    host = ReplicaHost(
        directory, party, byzantine=byzantine,
        journal=journal, checkpoint_every=checkpoint_every,
        dkg_boot=dkg_boot, join=join,
    )
    await host.start(recover=recover)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    address = host.network.listen_address
    host.emit("listening", host=address[0], port=address[1], recovering=recover)
    if recover:
        host.emit("replica-checkpoint", status=host.checkpoint_status)
    # Bounded by SIGTERM from the operator, not by wall clock: a
    # replica serves until told to stop.
    await stop.wait()  # repro: noqa-RL005 runs-until-signalled by design
    if host.replica is not None:
        if checkpoint_every:
            host.write_checkpoint()
        snapshot = host.replica.state_machine.snapshot()
        stats = host.replica.abc.stats()
        host.emit(
            "replica-abc-stats",
            rounds=f"{stats['rounds']:.0f}",
            delivered=f"{stats['delivered']:.0f}",
            mean_batch=f"{stats['mean_batch']:.3f}",
            occupancy=f"{stats['pipeline_occupancy']:.3f}",
        )
        host.emit(
            "replica-final",
            executed=len(host.replica.executed), snapshot=repr(snapshot),
        )
    else:
        host.emit("replica-final", byzantine=byzantine)
    await host.close()
    return 0


# -- a client process ---------------------------------------------------------------


async def run_client_ops(
    directory: str | pathlib.Path,
    operations: list[tuple],
    client_id: int = CLIENT_BASE,
    timeout: float = 60.0,
) -> list[object]:
    """Submit operations over TCP, one at a time; returns their results."""
    from .cluster import attach_client  # lazy: cluster imports us

    client = await attach_client(directory, random.Random(), client_id=client_id)
    results: list[object] = []
    try:
        for operation in operations:
            nonce = client.submit(operation)
            await client.network.wait_until(
                lambda: nonce in client.completed, timeout=timeout
            )
            results.append(client.completed[nonce].result)
        return results
    finally:
        await client.network.close()


async def submit_reconfigure(
    directory: str | pathlib.Path,
    action: str,
    signer: int = 0,
    party: int = -1,
    verify_key: int = 0,
    host: str = "",
    port: int = 0,
    client_id: int = CLIENT_BASE,
    timeout: float = 60.0,
    rng: random.Random | None = None,
) -> object:
    """Operator entry point: sign a ``Reconfigure`` op with a member's
    identity key from the deployment directory and order it through the
    live cluster.  Returns the agreed result tuple."""
    directory = pathlib.Path(directory)
    rng = rng or random.Random()
    public = keystore.load_public(directory / "public.json")
    signing_key = keystore.load_party(
        directory / f"server-{signer}.json", public
    ).signing_key
    epoch = load_epoch(directory) + 1
    if action == "remove" and party < 0:
        party = public.n - 1
    operation = reconfig.reconfigure_operation(
        action,
        epoch,
        signer,
        signing_key,
        rng,
        party=party,
        verify_key=verify_key,
        host=host,
        port=port,
    )
    results = await run_client_ops(
        directory, [operation], client_id=client_id, timeout=timeout
    )
    return results[0]
