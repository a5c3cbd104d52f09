"""Process hosts for the TCP transport: replicas, clients, clusters.

Where :mod:`repro.net.transport` provides the authenticated links, this
module provides the *deployment shape* around them:

* :class:`ReplicaHost` — one server process: keystore bundles from
  disk, a :class:`~repro.net.transport.TransportNetwork`, the
  :class:`~repro.core.runtime.ProtocolRuntime` and the service
  :class:`~repro.smr.replica.Replica`, with graceful SIGTERM shutdown
  and optional Section-6 crash recovery on startup.
* :func:`run_client_ops` — a client process: submits operations over
  TCP and awaits the threshold-signed answers.
* :func:`demo_cluster` — spawns an ``n``-server cluster in
  subprocesses, drives a client workload end-to-end, kills and restarts
  one replica mid-run, and verifies the restarted replica recovered the
  full history.

Everything here is the operational counterpart of
:func:`repro.smr.service.build_service`, which wires the same objects
to the deterministic simulator instead.  See ``docs/DEPLOYMENT.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import os
import pathlib
import random
import shutil
import signal
import socket
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass

from ..adversary.quorums import ThresholdQuorumSystem
from ..core.atomic_broadcast import AbcConfig
from ..core.protocol import Context, SessionId
from ..core.runtime import ProtocolRuntime
from ..crypto import dkg, keystore
from ..crypto.dealer import CLIENT_BASE, deal_channel_keys, deal_system, is_server
from ..crypto.groups import SchnorrGroup, small_group
from ..crypto.hashing import hash_bytes
from ..crypto.lsss import threshold_scheme
from ..crypto.schnorr import SigningKey, keygen
from ..smr import reconfig
from ..smr.client import ServiceClient
from ..smr.reconfig import EpochTombstone, epoch_service_session
from ..smr.replica import Replica, service_session
from ..smr.state_machine import KeyValueStore, StateMachine
from .transport import FaultPlan, TransportError, TransportNetwork

__all__ = [
    "CLUSTER_FILE",
    "DEFAULT_IO_TIMEOUT",
    "EPOCH_FILE",
    "BootstrapFile",
    "ClusterConfig",
    "ReplicaHost",
    "allocate_addresses",
    "checkpoint_path",
    "demo_cluster",
    "dh_channel_key",
    "load_bootstrap",
    "load_checkpoint",
    "load_epoch",
    "provision_dkg_deployment",
    "provision_joiner",
    "run_client_ops",
    "save_epoch",
    "serve_replica",
    "submit_reconfigure",
    "write_checkpoint",
]

CLUSTER_FILE = "cluster.json"
EPOCH_FILE = "epoch.json"

# Default bound on every "wait for the cluster to say something" loop.
# Configurable per deployment through ``ClusterConfig.io_timeout`` (and
# ``demo-cluster --io-timeout`` / chaos scenarios), because 30s is
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
    abc_max_batch_bytes: int | None = None
    abc_pipeline_depth: int | None = None

    def save(self, path: str | pathlib.Path) -> None:
        data = {
            "addresses": {
                str(party): [host, port]
                for party, (host, port) in sorted(self.addresses.items())
            },
            "io_timeout": self.io_timeout,
        }
        for knob in ("abc_max_batch", "abc_max_batch_bytes", "abc_pipeline_depth"):
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
            abc_max_batch_bytes=knob("abc_max_batch_bytes"),
            abc_pipeline_depth=knob("abc_pipeline_depth"),
        )

    def abc_config(self) -> "AbcConfig | None":
        """The :class:`AbcConfig` these knobs describe, or None for the
        protocol defaults."""
        overrides = {
            field_name: value
            for field_name, value in (
                ("max_batch", self.abc_max_batch),
                ("max_batch_bytes", self.abc_max_batch_bytes),
                ("pipeline_depth", self.abc_pipeline_depth),
            )
            if value is not None
        }
        if not overrides:
            return None
        return AbcConfig(**overrides)


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
    material = [b"repro-checkpoint-v1", party.to_bytes(8, "big")]
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
    from . import wire

    body = wire.dumps((tuple(entries), round_number))
    mac = hmac.new(_checkpoint_key(party, channel_keys), body, hashlib.sha256)
    path = checkpoint_path(directory, party)
    data = json.dumps(
        {"party": party, "body": body.hex(), "mac": mac.hexdigest()}
    )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(data)
    tmp.replace(path)  # atomic: a crash mid-write never half-updates
    return path


def load_checkpoint(
    directory: str | pathlib.Path, party: int, channel_keys: dict[int, bytes]
) -> tuple[tuple, int] | None:
    """Load and authenticate a checkpoint; ``None`` if it is missing,
    malformed, or fails the MAC — the caller must treat all three the
    same way (recover purely from peers)."""
    from . import wire

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
# key + pairwise channel keys, the authenticated-channel assumption of
# the model and nothing more — and the cluster generates its threshold
# keys itself (crypto/dkg.py).  The epoch file records which committed
# `Reconfigure` generation the on-disk keystore belongs to.


def epoch_file_path(directory: str | pathlib.Path) -> pathlib.Path:
    return pathlib.Path(directory) / EPOCH_FILE


def load_epoch(directory: str | pathlib.Path) -> int:
    """The keystore's epoch; 0 when absent (dealer-era deployments)."""
    try:
        return int(json.loads(epoch_file_path(directory).read_text())["epoch"])
    except (OSError, ValueError, TypeError, KeyError):
        return 0


def save_epoch(directory: str | pathlib.Path, epoch: int) -> None:
    keystore.atomic_write_text(
        epoch_file_path(directory), json.dumps({"epoch": epoch})
    )


@dataclass(frozen=True)
class BootstrapFile:
    """One party's on-disk pre-key identity (``bootstrap-<i>.json``)."""

    party: int
    n: int
    t: int
    group: SchnorrGroup
    signing_key: SigningKey
    channel_keys: dict[int, bytes]


def bootstrap_path(directory: str | pathlib.Path, party: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"bootstrap-{party}.json"


def save_bootstrap(directory: str | pathlib.Path, bundle: BootstrapFile) -> pathlib.Path:
    data = {
        "version": 1,
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
    }
    path = bootstrap_path(directory, bundle.party)
    keystore.atomic_write_text(path, json.dumps(data, indent=1))
    return path


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
    )


def provision_dkg_deployment(
    n: int,
    t: int,
    rng: random.Random,
    directory: str | pathlib.Path,
    clients: int = 1,
    group: SchnorrGroup | None = None,
) -> list[pathlib.Path]:
    """Operator-side provisioning for a dealerless cluster.

    Writes one ``bootstrap-<i>.json`` per server and the usual
    ``client-<id>.json`` channel bundles.  Unlike :func:`deal_system`,
    no threshold secret exists anywhere — compromising one bundle
    corrupts exactly one party.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grp = group or small_group()
    parties = list(range(n))
    client_ids = [CLIENT_BASE + i for i in range(clients)]
    keyring = deal_channel_keys(parties + client_ids, rng)
    written = []
    for party in parties:
        bundle = BootstrapFile(
            party=party,
            n=n,
            t=t,
            group=grp,
            signing_key=keygen(rng, grp),
            channel_keys=keyring[party],
        )
        written.append(save_bootstrap(directory, bundle))
    for cid in client_ids:
        path = directory / f"client-{cid}.json"
        keystore.atomic_write_text(
            path, json.dumps(keystore.client_to_dict(cid, keyring[cid]), indent=1)
        )
        written.append(path)
    return written


def provision_joiner(
    directory: str | pathlib.Path, party: int, rng: random.Random
) -> BootstrapFile:
    """Provision a replica that will *join* a running cluster.

    The joiner gets an identity key (its verify key rides inside the
    signed ``Reconfigure`` op) and fresh channel keys with every known
    client — the existing client bundles are updated in place.  Channel
    keys with the current *members* need no provisioning at all: both
    sides derive them Diffie-Hellman style from identity keys
    (:func:`dh_channel_key`).
    """
    directory = pathlib.Path(directory)
    public = keystore.load_public(directory / "public.json")
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
        keystore.atomic_write_text(
            path, json.dumps(keystore.client_to_dict(cid, existing), indent=1)
        )
    bundle = BootstrapFile(
        party=party,
        n=public.n + 1,
        t=getattr(public.quorum, "t", 0),
        group=public.group,
        signing_key=signing_key,
        channel_keys=channel_keys,
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


# -- one server process -------------------------------------------------------------


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
        self.mode = "dkg" if dkg_boot else "join" if join else "serve"
        if self.mode != "serve" and (byzantine is not None or causal):
            raise ValueError("dkg/join hosts must be honest, non-causal replicas")
        cluster = ClusterConfig.load(directory / CLUSTER_FILE)
        self.io_timeout = cluster.io_timeout
        self._abc_config = cluster.abc_config()
        self._state_machine = state_machine or KeyValueStore()
        self._causal = causal
        self.epoch = 0
        self._reshare_target: int | None = None
        # Set by the flush watchdog when a resharing neither completes
        # nor settles after retries: unlocks the stale-membership rescue
        # path (peers may have finished the epoch without us).
        self._reshare_stalled = False
        # The epoch as of this replica incarnation's *executed* history
        # (every replica replays from genesis, so this starts at 0 and
        # advances with each accepted Reconfigure, replayed or live).
        # During replay it lags self.epoch and selects the archived
        # configuration a historic op must be re-validated against.
        self._executed_epoch = 0
        # Set once this replica learns it was removed by an epoch it
        # missed: stops the resharing retry ladder from respawning.
        self._retired = False
        self._bootstrap: BootstrapFile | None = None
        # Signed membership votes for an epoch newer than ours, keyed
        # like the client's: (epoch, canonical public json) -> voters.
        self._stale_votes: dict[tuple[int, str], set[int]] = {}
        if self.mode == "serve":
            self.public = keystore.load_public(directory / "public.json")
            self.keys = keystore.load_party(
                directory / f"server-{party}.json", self.public
            )
            self.epoch = load_epoch(directory)
        elif self.mode == "dkg":
            bundle = load_bootstrap(directory, party)
            self._bootstrap = bundle
            self.public = dkg.BootstrapPublic(
                n=bundle.n, quorum=ThresholdQuorumSystem(n=bundle.n, t=bundle.t)
            )
            self.keys = dkg.BootstrapKeys(
                party=party,
                signing_key=bundle.signing_key,
                channel_keys=dict(bundle.channel_keys),
            )
        else:  # join a live cluster: previous epoch's public bundle
            bundle = load_bootstrap(directory, party)
            self._bootstrap = bundle
            self.public = keystore.load_public(directory / "public.json")
            self.epoch = load_epoch(directory)
            channel_keys = dict(bundle.channel_keys)
            for member, verify_key in self.public.verify_keys.items():
                channel_keys[member] = dh_channel_key(
                    self.public.group, bundle.signing_key.x, verify_key.h
                )
            self.keys = dkg.BootstrapKeys(
                party=party,
                signing_key=bundle.signing_key,
                channel_keys=channel_keys,
            )
        if faults is None:
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
            if self.mode == "serve":
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
                self.replica.on_execute = self._on_execute
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
        assert self.replica is not None
        self.replica.on_execute = self._on_execute
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
        if self.mode == "dkg":
            self._start_dkg()
            return
        if self.mode == "join":
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

    # -- dealerless bootstrap (DKG) ------------------------------------------------

    def _start_dkg(self, attempt: int = 0) -> None:
        """Run the key-generation session; the replica spawns once the
        cluster's threshold keys exist.

        ``attempt`` indexes the retry ladder: a session that neither
        completes nor settles after its flush (the conditional-agreement
        stall of :mod:`repro.crypto.dkg`) is respawned under a fresh
        tag.  Every host walks the same ladder on the same
        ``io_timeout``-derived schedule, so attempts line up; earlier
        attempts stay spawned so a session that completed at *any* party
        can still complete late at the others.
        """
        bundle = self._bootstrap
        assert bundle is not None
        self._dkg_scheme = threshold_scheme(bundle.n, bundle.t, bundle.group.q)
        session = dkg.dkg_session("boot" if attempt == 0 else ("boot", attempt))
        if attempt:
            print(
                f"replica-dkg-retry party={self.party} attempt={attempt}",
                flush=True,
            )
        self.runtime.spawn(
            session,
            dkg.DistributedKeyGeneration(bundle.group, self._dkg_scheme),
            on_output=self._finish_dkg,
        )
        self._watch_flush(
            session,
            settled=lambda: self.replica is not None,
            retry=lambda: self._start_dkg(attempt + 1),
        )

    def _finish_dkg(self, output: object) -> None:
        if not isinstance(output, dkg.DkgOutput) or self.replica is not None:
            return  # malformed, or a slower retry attempt finishing late
        bundle = self._bootstrap
        assert bundle is not None
        quorum = ThresholdQuorumSystem(n=bundle.n, t=bundle.t)
        public = dkg.build_public_keys(
            bundle.group, self._dkg_scheme, quorum, bundle.n, output
        )
        keys = dkg.build_party_keys(
            self.party,
            public,
            bundle.signing_key,
            output,
            channel_keys=dict(bundle.channel_keys),
        )
        # Every qualified party writes the identical canonical public
        # bundle (atomic replace makes the concurrent writes safe) and
        # its own secret bundle; from here on the deployment directory
        # is indistinguishable from a dealer-provisioned one.
        keystore.atomic_write_text(
            self.directory / "public.json",
            json.dumps(keystore.public_to_dict(public), indent=1),
        )
        keystore.atomic_write_text(
            self.directory / f"server-{self.party}.json",
            json.dumps(keystore.party_to_dict(keys), indent=1),
        )
        save_epoch(self.directory, 0)
        self.public = public
        self.keys = keys
        self.runtime.public = public
        self.runtime.keys = keys
        self.replica = Replica(self._state_machine, abc_config=self._abc_config)
        self._install_replica_hooks()
        self.runtime.spawn(epoch_service_session(0), self.replica)
        qualified = ",".join(str(p) for p in output.qualified)
        print(f"replica-dkg party={self.party} qualified={qualified}", flush=True)

    # -- epoch-based reconfiguration -----------------------------------------------

    def _reshare_tag(self, attempt: int) -> object:
        """The session tag of one resharing attempt — identical at every
        participant (members and joiner walk the same retry ladder)."""
        return "reshare" if attempt == 0 else ("reshare", attempt)

    def _start_join(self, attempt: int = 0) -> None:
        """A joining replica participates in the resharing for the next
        epoch as a pure receiver; its replica spawns at the new epoch's
        session once the resharing completes."""
        public = self.public
        tolerance = getattr(public.quorum, "t", None)
        if tolerance is None:
            raise ValueError("joining requires a threshold quorum deployment")
        if self.party != public.n:
            raise ValueError(f"joiner must take the next free id {public.n}")
        target = self.epoch + 1
        new_n = public.n + 1
        new_scheme = threshold_scheme(new_n, tolerance, public.group.q)
        new_quorum = ThresholdQuorumSystem(n=new_n, t=tolerance)
        new_verify_keys = {
            member: key.h
            for member, key in public.verify_keys.items()
            if member < new_n
        }
        new_verify_keys[self.party] = self.keys.signing_key.verify_key.h
        protocol = dkg.VerifiableResharing(
            public.group,
            public.access_scheme,
            new_scheme,
            public.coin.verification,
            public.encryption.verification,
            tuple(range(new_n)),
            new_quorum,
            new_verify_keys,
        )
        session = dkg.reshare_session(target, self._reshare_tag(attempt))
        if attempt:
            print(
                f"replica-join-retry party={self.party} attempt={attempt}",
                flush=True,
            )
        self.runtime.spawn(
            session,
            protocol,
            on_output=lambda out: self._adopt_epoch(
                out, target, new_n, new_scheme, new_quorum
            ),
        )
        self._watch_flush(
            session,
            settled=lambda: self.epoch >= target or self._retired,
            retry=lambda: self._start_join(attempt + 1),
        )

    def _epoch_public(self, epoch: int):
        """The configuration of ``epoch``: the live one, or the archive
        written at the switch (``public-epoch-<e>.json``); ``None`` when
        the archive is unavailable (fresh disk / pre-archive history)."""
        if epoch == self.epoch:
            return self.public
        try:
            return keystore.load_public(
                self.directory / f"public-epoch-{epoch}.json"
            )
        except (keystore.KeystoreError, OSError):
            return None

    def _archive_epoch_public(self) -> None:
        """Persist the closing epoch's configuration before the keystore
        is overwritten, so a replay can re-validate that epoch's ordered
        ``Reconfigure`` operations exactly as they were validated live."""
        if isinstance(self.public, dkg.BootstrapPublic):
            return
        keystore.atomic_write_text(
            self.directory / f"public-epoch-{self.epoch}.json",
            json.dumps(keystore.public_to_dict(self.public), indent=1),
        )

    def _intercept(self, request, rnd: int, replaying: bool) -> object | None:
        """Replica hook: consume ``Reconfigure`` operations.

        The verdict must be a pure function of the agreed history,
        never of local timing, so that every honest replica records the
        same accept/reject result for the same ordered operation:

        * while a resharing is in flight, the replica's execution is
          *paused* (ordered requests queue in delivery order), so every
          operation behind an accepted ``Reconfigure`` executes at the
          new epoch on every replica — no replica ever validates it
          against an epoch another replica has already left;
        * a historic operation replayed during recovery is re-validated
          in full against the archived configuration of the epoch it
          was originally executed in, so an op that was rejected (bad
          signature, wrong party id, stale epoch) replays as rejected.

        The application state machine never sees the operation.
        """
        operation = request.operation
        parsed = reconfig.parse_reconfigure(operation)
        if parsed is None:
            return None  # an ordinary application operation
        if replaying and self._executed_epoch < self.epoch:
            # Historic change: recompute the original verdict against
            # that epoch's configuration.  The on-disk keystore already
            # reflects a later epoch, so accepting never re-triggers a
            # resharing.
            historic = self._epoch_public(self._executed_epoch)
            if historic is not None:
                accepted = (
                    reconfig.validate_reconfigure(
                        operation, historic, self._executed_epoch
                    )
                    is not None
                )
            else:
                # Archive lost (fresh disk, pre-archive history): fall
                # back to epoch ordinality — each accepted op opened
                # exactly the next epoch.
                accepted = parsed[0].epoch == self._executed_epoch + 1
            if not accepted:
                return ("reconfig", "rejected", self._executed_epoch)
            self._executed_epoch += 1
            return ("reconfig", "accepted", parsed[0].epoch)
        validated = reconfig.validate_reconfigure(operation, self.public, self.epoch)
        if validated is None:
            return ("reconfig", "rejected", self.epoch)
        # Valid for the *next* epoch — start (or, when replaying after a
        # kill mid-resharing, rejoin) the resharing session, and pause
        # ordered execution until the switch.  Peer contributions sent
        # while we were down are retransmitted by the transport and
        # buffered by the runtime, so a late spawn still completes.
        if self._start_reshare(validated):
            self._executed_epoch = validated.epoch
            self._reshare_target = validated.epoch
            self.replica.pause_execution()
        return ("reconfig", "accepted", validated.epoch)

    def _start_reshare(
        self, request: "reconfig.ReconfigureRequest", attempt: int = 0
    ) -> bool:
        """Spawn one resharing attempt for an accepted ``Reconfigure``;
        True when a session was actually started."""
        public = self.public
        group = public.group
        tolerance = getattr(public.quorum, "t", None)
        if tolerance is None:
            print(
                f"replica-reconfig-unsupported party={self.party} "
                "(non-threshold quorum)",
                flush=True,
            )
            return False
        target = request.epoch
        new_n = reconfig.new_member_count(public, request)
        new_scheme = threshold_scheme(new_n, tolerance, group.q)
        new_quorum = ThresholdQuorumSystem(n=new_n, t=tolerance)
        new_verify_keys = {
            member: key.h
            for member, key in public.verify_keys.items()
            if member < new_n
        }
        if request.action == "add":
            new_verify_keys[request.party] = request.verify_key
            # The joiner becomes reachable: address from the ordered op
            # (authoritative — an add that reuses a previously removed
            # id must not keep that id's stale address), channel key
            # derived Diffie-Hellman style from identities.
            joiner_key = dh_channel_key(
                group, self.keys.signing_key.x, request.verify_key
            )
            self.network.admit_peer(
                request.party, (request.host, request.port), joiner_key
            )
            # The reshare protocol masks the joiner's subshares with the
            # same pairwise key, so the keystore bundle needs it too.
            self.keys.channel_keys[request.party] = joiner_key
        removed = request.party if request.action == "remove" else None
        protocol = dkg.VerifiableResharing(
            group,
            public.access_scheme,
            new_scheme,
            public.coin.verification,
            public.encryption.verification,
            tuple(range(new_n)),
            new_quorum,
            new_verify_keys,
            self.keys.coin.subshares,
            self.keys.decryption.subshares,
        )
        session = dkg.reshare_session(target, self._reshare_tag(attempt))
        if attempt:
            print(
                f"replica-reshare-retry party={self.party} epoch={target} "
                f"attempt={attempt}",
                flush=True,
            )
            # Peers may have completed this epoch without us (divergent
            # flush): probe for their signed membership record so the
            # stale-adoption path can rescue this replica if so.
            self._reshare_stalled = True
            Context(self.runtime, epoch_service_session(self.epoch)).broadcast(
                reconfig.MembershipQuery(known_epoch=self.epoch)
            )
        if request.action == "remove" and request.party == self.party:
            # We are being retired: deal our contribution so the others
            # can reshare, but take no new keys.  We keep answering the
            # old epoch's session until the operator stops us; after the
            # switch our shares are useless against the re-randomized
            # verification values (tests/crypto/test_dkg.py proves it).
            self.runtime.spawn(session, protocol)
            if attempt == 0:
                print(
                    f"replica-departed party={self.party} epoch={target}",
                    flush=True,
                )
        else:
            self.runtime.spawn(
                session,
                protocol,
                on_output=lambda out: self._adopt_epoch(
                    out, target, new_n, new_scheme, new_quorum, removed=removed
                ),
            )
        self._watch_flush(
            session,
            # A departed replica never adopts ``target``; it settles by
            # learning (via the stale-membership probe) that it retired.
            settled=lambda: self.epoch >= target or self._retired,
            retry=lambda: self._start_reshare(request, attempt + 1),
        )
        return True

    def _adopt_epoch(
        self,
        output: object,
        target: int,
        new_n: int,
        new_scheme,
        new_quorum,
        removed: int | None = None,
    ) -> None:
        """Switch this replica to the new epoch's keys and session."""
        if not isinstance(output, dkg.DkgOutput) or self.epoch >= target:
            return  # malformed, or a slower retry attempt finishing late
        group = (
            self.public.group
            if not isinstance(self.public, dkg.BootstrapPublic)
            else self._bootstrap.group
        )
        new_public = dkg.build_public_keys(group, new_scheme, new_quorum, new_n, output)
        # Probe: a coin share from the *pre-switch* keys must fail under
        # the freshly randomized verification values (this is what makes
        # a departed replica's shares useless).
        stale_note = ""
        old_coin = getattr(self.keys, "coin", None)
        if old_coin is not None:
            try:
                stale = old_coin.share_for(("epoch-probe", target), self.runtime.rng)
                stale_note = (
                    f" stale_shares_valid={new_public.coin.verify_share(stale)}"
                )
            except (KeyError, ValueError):
                stale_note = " stale_shares_valid=False"
        new_keys = dkg.build_party_keys(
            self.party,
            new_public,
            self.keys.signing_key,
            output,
            channel_keys=dict(self.keys.channel_keys),
        )
        self._archive_epoch_public()
        keystore.atomic_write_text(
            self.directory / "public.json",
            json.dumps(keystore.public_to_dict(new_public), indent=1),
        )
        keystore.atomic_write_text(
            self.directory / f"server-{self.party}.json",
            json.dumps(keystore.party_to_dict(new_keys), indent=1),
        )
        save_epoch(self.directory, target)
        old_epoch = self.epoch
        old_session = epoch_service_session(old_epoch)
        info = reconfig.signed_membership_info(
            self.party,
            target,
            keystore.public_to_dict(new_public),
            self.keys.signing_key,
            self.runtime.rng,
        )
        self.public = new_public
        self.keys = new_keys
        self.runtime.public = new_public
        self.runtime.keys = new_keys
        self.epoch = target
        self._reshare_target = None
        self._reshare_stalled = False
        if removed is not None and removed != self.party:
            # The ordered remove is final: drop the departed peer's
            # address, channel key and connection state so a later add
            # reusing the id starts clean (and broadcasts stop dialing
            # a dead replica).
            self.network.forget_peer(removed)
        # Close every prior epoch: the current session's replica becomes
        # a tombstone, and older tombstones learn the newest record.
        joined = self.replica is None
        self.runtime.instances.pop(old_session, None)
        self.runtime.spawn(old_session, EpochTombstone(info))
        for epoch in range(old_epoch):
            stale_session = epoch_service_session(epoch)
            instance = self.runtime.instances.get(stale_session)
            if isinstance(instance, EpochTombstone):
                instance.info = info
        if joined:
            self.replica = Replica(self._state_machine, abc_config=self._abc_config)
        self._install_replica_hooks()
        new_session = epoch_service_session(target)
        self.runtime.spawn(new_session, self.replica)
        if not joined:
            # Rounds in flight when the old session was tombstoned can
            # never decide there; re-propose their payloads here so the
            # broadcast does not wedge behind a dead round.
            self.replica.rebase_broadcast(Context(self.runtime, new_session))
        # Release everything ordered behind the Reconfigure: it executes
        # now, at the new epoch, in delivery order — the same point of
        # the history at every replica.
        self.replica.resume_execution(Context(self.runtime, new_session))
        print(
            f"replica-epoch party={self.party} epoch={target} n={new_n}{stale_note}",
            flush=True,
        )
        if joined:
            # State transfer from the checkpointed history (Section 6)
            # on the new epoch's session.
            self.replica.begin_recovery(Context(self.runtime, new_session))
            task = asyncio.get_running_loop().create_task(_announce_recovery(self))
            task.add_done_callback(lambda t: t.cancelled() or t.exception())

    def _on_stale_info(self, sender: int, info: object) -> None:
        """A RecoverQuery we sent came back with the signed membership
        record of a newer epoch: the cluster moved on while this replica
        was down.  Adopt once an honest-containing set of *currently
        trusted* members signed the identical record — the same trust
        chain clients use (identity keys persist across epochs).

        While a resharing is in flight the votes are ignored — unless
        the flush watchdog marked it stalled, in which case the peers
        may have completed the epoch without us and this is the way
        back in (degraded: our share material missed the refresh)."""
        if self.replica is None:
            return
        if self._reshare_target is not None and not self._reshare_stalled:
            return
        if not reconfig.verify_membership_info(info, self.public):
            return
        if info.epoch <= self.epoch:
            return
        votes = self._stale_votes.setdefault(
            (info.epoch, info.public_json), set()
        )
        votes.add(sender)
        if not self.public.quorum.contains_honest(frozenset(votes)):
            return
        try:
            new_public = keystore.public_from_dict(json.loads(info.public_json))
        except (ValueError, KeyError, TypeError):
            return
        self._stale_votes.clear()
        self._adopt_stale(info.epoch, new_public)

    def _adopt_stale(self, target: int, new_public) -> None:
        """Rejoin at a newer epoch whose resharing we missed entirely.

        Our threshold share material predates the re-randomization, so
        it stays useless until the next refresh epoch; identity and
        channel keys persist, though, so the replica still
        authenticates, orders, executes and state-transfers — degraded
        but consistent rather than stalled at a dead session.
        """
        if self.party >= new_public.n:
            # The epoch we missed removed us.  Stop the retry ladder —
            # the peers will never spawn our resharing session.
            self._retired = True
            self._reshare_target = None
            self._reshare_stalled = False
            print(f"replica-retired party={self.party} epoch={target}", flush=True)
            return
        # Channel keys for members admitted while we were down derive
        # from identity keys, Diffie-Hellman style (same construction
        # the resharing used).
        for member, verify_key in new_public.verify_keys.items():
            if member not in self.keys.channel_keys and member != self.party:
                key = dh_channel_key(
                    new_public.group, self.keys.signing_key.x, verify_key.h
                )
                self.keys.channel_keys[member] = key
                self.network.channel_keys[member] = key
        new_keys = keystore.party_from_dict(
            keystore.party_to_dict(self.keys), new_public
        )
        # Keep the superseded configuration for journal-replay
        # re-validation (epochs we skipped have no archive; replay
        # falls back to ordinal checking for those).
        self._archive_epoch_public()
        keystore.atomic_write_text(
            self.directory / "public.json",
            json.dumps(keystore.public_to_dict(new_public), indent=1),
        )
        save_epoch(self.directory, target)
        old_epoch = self.epoch
        old_session = epoch_service_session(old_epoch)
        info = reconfig.signed_membership_info(
            self.party,
            target,
            keystore.public_to_dict(new_public),
            self.keys.signing_key,
            self.runtime.rng,
        )
        self.public = new_public
        self.keys = new_keys
        self.runtime.public = new_public
        self.runtime.keys = new_keys
        self.epoch = target
        self._reshare_target = None
        self._reshare_stalled = False
        # Members the missed epochs retired: drop their channels and
        # addresses so a later add may reuse the id with a clean slate.
        # The clients in the address book are not members: they stay.
        for member in sorted(self.network.addresses):
            if is_server(member) and member >= new_public.n:
                self.network.forget_peer(member)
        self.runtime.instances.pop(old_session, None)
        self.runtime.spawn(old_session, EpochTombstone(info))
        for epoch in range(old_epoch):
            stale_session = epoch_service_session(epoch)
            instance = self.runtime.instances.get(stale_session)
            if isinstance(instance, EpochTombstone):
                instance.info = info
        self._install_replica_hooks()
        new_session = epoch_service_session(target)
        self.runtime.spawn(new_session, self.replica)
        # Rounds in flight at the tombstoned session can never decide
        # there; re-propose their payloads under the adopted session.
        self.replica.rebase_broadcast(Context(self.runtime, new_session))
        # Operations queued behind the stalled reshare execute now,
        # under the epoch the cluster actually agreed on.
        self.replica.resume_execution(Context(self.runtime, new_session))
        print(
            f"replica-stale-epoch party={self.party} epoch={target} "
            f"n={new_public.n}",
            flush=True,
        )
        # State transfer on the new session fills in everything ordered
        # while we were away.
        self.replica.begin_recovery(Context(self.runtime, new_session))
        task = asyncio.get_running_loop().create_task(_announce_recovery(self))
        task.add_done_callback(lambda t: t.cancelled() or t.exception())

    def _watch_flush(
        self,
        session: SessionId,
        settled: Callable[[], bool] | None = None,
        retry: Callable[[], None] | None = None,
    ) -> None:
        """Liveness hatch for a bootstrap/resharing session.

        Flushing is a one-shot, idempotent escape hatch — it only expels
        contributors that never delivered — and execution is paused for
        the whole reshare, so the service is unavailable until the
        session settles.  The flush therefore fires after an eighth of
        the deployment I/O budget (scaled, never capped: slow links and
        large n stretch it proportionally) so a crashed contributor
        costs availability on the order of seconds, not the full
        budget.  Uncoordinated flushes can still settle hosts on
        divergent qualified sets — conditional agreement then leaves
        the session with no ready quorum.  So once a full I/O budget
        has passed in silence the `retry` callback respawns the
        protocol under a fresh session tag, exactly as dkg.py
        prescribes; every host runs the same clock so the ladders
        stay aligned.  `settled` reports success recorded outside the
        session result (e.g. the epoch already adopted)."""

        def is_settled() -> bool:
            if self.runtime is None or self.runtime.result(session) is not None:
                return True
            return settled is not None and settled()

        async def watch() -> None:
            await asyncio.sleep(self.io_timeout / 8)
            if is_settled():
                return
            instance = self.runtime.instances.get(session)
            flush = getattr(instance, "flush", None)
            if flush is not None:
                flush(Context(self.runtime, session))
            if retry is None:
                return
            await asyncio.sleep(self.io_timeout * 7 / 8)
            if is_settled():
                return
            retry()

        task = asyncio.get_running_loop().create_task(watch())
        task.add_done_callback(lambda t: t.cancelled() or t.exception())

    async def close(self) -> None:
        await self.network.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None  # repro: noqa-RL005 idempotent shutdown, single owner


async def serve_replica(
    directory: str | pathlib.Path,
    party: int,
    recover: bool = False,
    causal: bool = False,
    byzantine: str | None = None,
    journal: bool = False,
    checkpoint_every: int = 0,
    dkg_boot: bool = False,
    join: bool = False,
) -> int:
    """Run one replica until SIGTERM/SIGINT; prints a parseable final
    state line (the demo cluster checks it to verify recovery)."""
    host = ReplicaHost(
        directory, party, causal=causal, byzantine=byzantine,
        journal=journal, checkpoint_every=checkpoint_every,
        dkg_boot=dkg_boot, join=join,
    )
    await host.start(recover=recover)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    address = host.network.listen_address
    print(
        f"replica {party} listening on {address[0]}:{address[1]}"
        + (" (recovering)" if recover else ""),
        flush=True,
    )
    if recover:
        print(
            f"replica-checkpoint party={party} status={host.checkpoint_status}",
            flush=True,
        )
    if recover and host.replica is not None:
        task = loop.create_task(_announce_recovery(host))
        task.add_done_callback(lambda t: t.cancelled() or t.exception())
    # Bounded by SIGTERM from the operator, not by wall clock: a
    # replica serves until told to stop.
    await stop.wait()  # repro: noqa-RL005 runs-until-signalled by design
    if host.replica is not None:
        if checkpoint_every:
            host.write_checkpoint()
        snapshot = host.replica.state_machine.snapshot()
        stats = host.replica.abc.stats()
        print(
            f"replica-abc-stats party={party} "
            f"rounds={stats['rounds']:.0f} "
            f"delivered={stats['delivered']:.0f} "
            f"mean_batch={stats['mean_batch']:.3f} "
            f"occupancy={stats['pipeline_occupancy']:.3f}",
            flush=True,
        )
        print(
            f"replica-final party={party} executed={len(host.replica.executed)} "
            f"snapshot={snapshot!r}",
            flush=True,
        )
    else:
        print(f"replica-final party={party} byzantine={byzantine}", flush=True)
    await host.close()
    return 0


async def _announce_recovery(host: ReplicaHost) -> None:
    """Print a parseable line once Section-6 state transfer finishes
    (the demo cluster waits for it before declaring success)."""
    while host.replica.recovering:
        await asyncio.sleep(0.05)
    print(
        f"replica-recovered party={host.party} "
        f"executed={len(host.replica.executed)}",
        flush=True,
    )


# -- a client process ---------------------------------------------------------------


async def run_client_ops(
    directory: str | pathlib.Path,
    operations: list[tuple],
    client_id: int = CLIENT_BASE,
    timeout: float = 60.0,
) -> list[object]:
    """Submit operations over TCP, one at a time; returns their results."""
    directory = pathlib.Path(directory)
    public = keystore.load_public(directory / "public.json")
    cid, channel_keys = keystore.load_client(directory / f"client-{client_id}.json")
    cluster = ClusterConfig.load(directory / CLUSTER_FILE)
    network = TransportNetwork(cid, cluster.addresses, channel_keys)
    client = ServiceClient(
        cid, network, public, random.Random(), epoch=load_epoch(directory)
    )
    network.attach(cid, client)
    await network.start()
    try:
        results: list[object] = []
        for operation in operations:
            nonce = client.submit(operation)
            await network.wait_until(
                lambda: nonce in client.completed, timeout=timeout
            )
            results.append(client.completed[nonce].result)
        return results
    finally:
        await network.close()


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


# -- the demo cluster ---------------------------------------------------------------


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
        self,
        proc: asyncio.subprocess.Process,
        party: int,
        io_timeout: float = DEFAULT_IO_TIMEOUT,
    ) -> None:
        self.proc = proc
        self.party = party
        self.io_timeout = io_timeout
        self.lines: list[str] = []
        task = asyncio.get_running_loop().create_task(self._drain())
        task.add_done_callback(lambda t: t.cancelled() or t.exception())
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
                print(f"  [replica {self.party}] {line}", flush=True)
            if not chunk:
                return

    async def wait_for_line(self, needle: str, timeout: float | None = None) -> str:
        """Block until a captured stdout line contains ``needle``.

        The deadline defaults to the deployment's configured
        ``ClusterConfig.io_timeout`` (threaded through at spawn time)
        rather than a hardcoded constant.
        """
        if timeout is None:
            timeout = self.io_timeout
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            for line in self.lines:
                if needle in line:
                    return line
            if self.proc.returncode is not None:
                raise TransportError(
                    f"replica {self.party} exited before printing {needle!r}"
                )
            if asyncio.get_running_loop().time() > deadline:
                raise TransportError(
                    f"replica {self.party} never printed {needle!r}"
                )
            await asyncio.sleep(0.05)

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


async def _spawn_replica(
    directory: pathlib.Path,
    party: int,
    recover: bool = False,
    byzantine: str | None = None,
    journal: bool = False,
    checkpoint_every: int = 0,
    io_timeout: float = DEFAULT_IO_TIMEOUT,
    dkg_boot: bool = False,
    join: bool = False,
) -> _ReplicaProcess:
    command = [
        sys.executable, "-m", "repro", "run-replica",
        "--dir", str(directory), "--party", str(party),
    ]
    if recover:
        command.append("--recover")
    if dkg_boot:
        command.append("--dkg")
    if join:
        command.append("--join")
    if byzantine:
        command.extend(["--byzantine", byzantine])
    if journal:
        command.append("--journal")
    if checkpoint_every:
        command.extend(["--checkpoint-every", str(checkpoint_every)])
    proc = await asyncio.create_subprocess_exec(
        *command,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
        env=_replica_env(),
    )
    return _ReplicaProcess(proc, party, io_timeout=io_timeout)


async def _submit_and_await(
    network: TransportNetwork,
    client: ServiceClient,
    operations: list[tuple],
    timeout: float,
) -> list[object]:
    results: list[object] = []
    for operation in operations:
        nonce = client.submit(operation)
        await network.wait_until(lambda: nonce in client.completed, timeout=timeout)
        result = client.completed[nonce].result
        print(f"  client: {operation!r} -> {result!r}", flush=True)
        results.append(result)
    return results


async def _demo_cluster(
    n: int, t: int, seed: int, directory: pathlib.Path, timeout: float
) -> int:
    rng = random.Random(seed)
    print(f"dealing keys for n={n}, t={t} (plus one client identity)", flush=True)
    keys = deal_system(n, rng, t=t, clients=1, group=small_group())
    keystore.write_deployment(keys, directory)
    addresses = allocate_addresses(list(range(n)) + [CLIENT_BASE])
    ClusterConfig(addresses, io_timeout=timeout).save(directory / CLUSTER_FILE)

    print(f"spawning {n} replica processes", flush=True)
    replicas = {
        party: await _spawn_replica(directory, party, io_timeout=timeout)
        for party in range(n)
    }
    public = keystore.load_public(directory / "public.json")
    cid, channel_keys = keystore.load_client(
        directory / f"client-{CLIENT_BASE}.json"
    )
    network = TransportNetwork(cid, addresses, channel_keys)
    client = ServiceClient(cid, network, public, random.Random(seed + 99))
    network.attach(cid, client)
    await network.start()
    victim = n - 1
    try:
        print("phase A: 3 writes with the full cluster", flush=True)
        phase_a = [("set", f"key-{i}", i) for i in range(3)]
        await _submit_and_await(network, client, phase_a, timeout)

        print(f"killing replica {victim} (SIGKILL, no warning)", flush=True)
        await replicas[victim].kill()

        print(f"phase B: 2 writes with {n - 1} replicas", flush=True)
        phase_b = [("set", f"key-{i}", i) for i in range(3, 5)]
        await _submit_and_await(network, client, phase_b, timeout)

        print(f"restarting replica {victim} with --recover", flush=True)
        replicas[victim] = await _spawn_replica(
            directory, victim, recover=True, io_timeout=timeout
        )
        await replicas[victim].wait_for_line("listening", timeout)

        print("phase C: 1 write + 1 read with the recovered cluster", flush=True)
        phase_c = [("set", "key-5", 5), ("get", "key-0")]
        results = await _submit_and_await(network, client, phase_c, timeout)
        if results[-1] != ("value", 0):
            print("demo-cluster: FAILED (read returned the wrong value)")
            return 1

        # State transfer (Section 6) runs concurrently with phase C;
        # wait for the restarted replica to announce it has caught up
        # before asking everyone for their final snapshot.
        await replicas[victim].wait_for_line("replica-recovered", timeout)

        print("stopping the cluster (SIGTERM)", flush=True)
        for party in sorted(replicas):
            await replicas[party].stop()

        # The restarted replica must have replayed the history it
        # missed: every key from every phase in its final snapshot.
        final = next(
            (line for line in replicas[victim].lines if "replica-final" in line), ""
        )
        missing = [f"key-{i}" for i in range(6) if f"key-{i}" not in final]
        if not final or missing:
            print(f"demo-cluster: FAILED (replica {victim} did not recover "
                  f"{missing or 'at all'})")
            return 1
        print(f"demo-cluster: ok (replica {victim} recovered the full history)")
        return 0
    finally:
        for process in replicas.values():
            await process.kill()
        await network.close()


async def _demo_cluster_dkg(
    n: int, t: int, seed: int, directory: pathlib.Path, timeout: float
) -> int:
    """Dealerless demo: boot via DKG, then reconfigure the live cluster
    n -> n+1 -> n (add a member, then remove it) without stopping."""
    rng = random.Random(seed)
    joiner = n
    print(f"provisioning bootstrap identities for n={n}, t={t} (NO dealer)",
          flush=True)
    provision_dkg_deployment(n, t, rng, directory, clients=1, group=small_group())
    addresses = allocate_addresses(list(range(n + 1)) + [CLIENT_BASE])
    joiner_addr = addresses.pop(joiner)
    ClusterConfig(dict(addresses), io_timeout=timeout).save(
        directory / CLUSTER_FILE
    )

    print(f"spawning {n} replicas with --dkg (distributed key generation)",
          flush=True)
    replicas = {
        party: await _spawn_replica(
            directory, party, dkg_boot=True, io_timeout=timeout
        )
        for party in range(n)
    }
    for party in range(n):
        line = await replicas[party].wait_for_line("replica-dkg", timeout)
        print(f"  {line}", flush=True)

    public = keystore.load_public(directory / "public.json")
    cid, channel_keys = keystore.load_client(
        directory / f"client-{CLIENT_BASE}.json"
    )
    network = TransportNetwork(cid, dict(addresses), channel_keys)
    client = ServiceClient(cid, network, public, random.Random(seed + 99))
    network.attach(cid, client)
    await network.start()
    operator_rng = random.Random(seed + 7)
    try:
        print("phase A: 3 writes against the DKG-generated keys", flush=True)
        phase_a = [("set", f"key-{i}", i) for i in range(3)]
        await _submit_and_await(network, client, phase_a, timeout)

        print(f"provisioning joiner {joiner} and spawning it with --join",
              flush=True)
        bundle = provision_joiner(directory, joiner, operator_rng)
        addresses[joiner] = joiner_addr
        ClusterConfig(dict(addresses), io_timeout=timeout).save(
            directory / CLUSTER_FILE
        )
        # The running client learns the joiner's address and its fresh
        # channel key (provision_joiner rewrote the client bundle).
        _, refreshed_keys = keystore.load_client(
            directory / f"client-{CLIENT_BASE}.json"
        )
        network.addresses[joiner] = joiner_addr
        network.channel_keys[joiner] = refreshed_keys[joiner]
        replicas[joiner] = await _spawn_replica(
            directory, joiner, join=True, io_timeout=timeout
        )

        print(f"submitting ordered Reconfigure(add, party={joiner}) -> epoch 1",
              flush=True)
        signer_keys = keystore.load_party(directory / "server-0.json", public)
        add_op = reconfig.reconfigure_operation(
            "add", 1, 0, signer_keys.signing_key, operator_rng,
            party=joiner,
            verify_key=bundle.signing_key.verify_key.h,
            host=joiner_addr[0], port=joiner_addr[1],
        )
        results = await _submit_and_await(network, client, [add_op], timeout)
        if results[0] != ("reconfig", "accepted", 1):
            print("demo-cluster: FAILED (add operation rejected)")
            return 1
        for party in range(n + 1):
            line = await replicas[party].wait_for_line("replica-epoch", timeout)
            print(f"  {line}", flush=True)
        await replicas[joiner].wait_for_line("replica-recovered", timeout)
        print(f"  replica {joiner} joined epoch 1 and state-transferred",
              flush=True)

        print(f"phase B: 2 writes with n={n + 1} (client refetches membership)",
              flush=True)
        phase_b = [("set", f"key-{i}", i) for i in range(3, 5)]
        await _submit_and_await(network, client, phase_b, timeout)
        if client.epoch != 1:
            print("demo-cluster: FAILED (client never adopted epoch 1)")
            return 1

        print(f"submitting ordered Reconfigure(remove, party={joiner}) -> epoch 2",
              flush=True)
        public = keystore.load_public(directory / "public.json")
        signer_keys = keystore.load_party(directory / "server-0.json", public)
        remove_op = reconfig.reconfigure_operation(
            "remove", 2, 0, signer_keys.signing_key, operator_rng, party=joiner
        )
        results = await _submit_and_await(network, client, [remove_op], timeout)
        if results[0] != ("reconfig", "accepted", 2):
            print("demo-cluster: FAILED (remove operation rejected)")
            return 1
        stale_ok = True
        for party in range(n):
            line = await replicas[party].wait_for_line(
                f"replica-epoch party={party} epoch=2", timeout
            )
            print(f"  {line}", flush=True)
            stale_ok = stale_ok and "stale_shares_valid=False" in line
        if not stale_ok:
            print("demo-cluster: FAILED (departed replica's shares still "
                  "verify in epoch 2)")
            return 1
        line = await replicas[joiner].wait_for_line("replica-departed", timeout)
        print(f"  {line}", flush=True)
        print(f"stopping departed replica {joiner}", flush=True)
        await replicas[joiner].stop()

        print(f"phase C: 1 write + 1 read back at n={n} (epoch 2)", flush=True)
        phase_c = [("set", "key-5", 5), ("get", "key-0")]
        results = await _submit_and_await(network, client, phase_c, timeout)
        if results[-1] != ("value", 0):
            print("demo-cluster: FAILED (read returned the wrong value)")
            return 1
        if client.epoch != 2 or client.epoch_refreshes < 2:
            print("demo-cluster: FAILED (client did not follow both epochs)")
            return 1

        print("stopping the cluster (SIGTERM)", flush=True)
        for party in range(n):
            await replicas[party].stop()
        for party in range(n):
            final = next(
                (l for l in replicas[party].lines if "replica-final" in l), ""
            )
            missing = [f"key-{i}" for i in range(6) if f"key-{i}" not in final]
            if not final or missing:
                print(f"demo-cluster: FAILED (replica {party} final state "
                      f"missing {missing or 'everything'})")
                return 1
        print(f"demo-cluster: ok (dealerless boot, live {n}->{n + 1}->{n} "
              f"reconfiguration, epochs 0..2)")
        return 0
    finally:
        for process in replicas.values():
            await process.kill()
        await network.close()


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
        return asyncio.run(runner(n, t, seed, workdir, timeout))
    finally:
        if created and not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        elif keep:
            print(f"cluster state kept in {workdir}")
