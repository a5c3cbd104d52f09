"""One server of a deployment, and its files.

* the deployment directory's files besides the keystore: ``cluster.json``
  (:class:`ClusterConfig`); provisioning writes it;
* a host's own directory ``host-<i>/``: its seed (a bootstrap bundle,
  beside a keyless record for a joiner), which provisioning writes, and
  its record (:class:`HostState`), the one file it writes after boot;
  :func:`current_membership` is the operator's read of the newest;
* :class:`ReplicaHost` — one server: what its own directory holds (else
  the dealt bundles) decides how it boots; the network it serves on (its
  own TCP transport, or a sweep cell's simulator), the protocol runtime
  and the service replica, Section-6 recovery on startup and the one
  transition between epochs;
  :func:`serve_replica` runs one as a process until SIGTERM;
Standing up a whole cluster is :mod:`repro.net.cluster`; n hosts on the
simulator are :class:`repro.net.sweep.SimCluster`.  See
``docs/DEPLOYMENT.md``.
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
from ..smr.state_machine import KeyValueStore
from . import wire
from .attacks import byzantine_node
from .base import NetworkBackend
from .transport import TransportNetwork

__all__ = [
    "CLUSTER_FILE",
    "DEFAULT_IO_TIMEOUT",
    "LINE_KINDS",
    "BootstrapFile",
    "ClusterConfig",
    "HostState",
    "Phase",
    "ReplicaHost",
    "allocate_addresses",
    "current_membership",
    "dh_channel_key",
    "find_event",
    "identity_key",
    "load_bootstrap",
    "open_checkpoint",
    "parse",
    "provision_dkg_deployment",
    "provision_joiner",
    "render",
    "seal_checkpoint",
    "serve_replica",
    "state_path",
]

CLUSTER_FILE = "cluster.json"
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


# -- a host's own record ------------------------------------------------------------
#
# After boot a host writes one file, its record, and reads back nothing
# another host wrote: the deployment directory keeps what dealing or
# provisioning put there (``public.json`` is always epoch 0's bundle).
# The record is written whole and atomically on entering an epoch, before
# the keys swap, and at each checkpoint, so a host killed at any instant
# restarts into one epoch with its keys.
#
# The checkpoint is the delivered log, so a restart replays most of its
# history from disk and fetches only the tail from peers (Section 6
# recovery stays the source of truth).  It carries its own MAC: the
# paper's adversary may control the machine between crash and restart.
# The MAC key is derived from the party id and its identity signing key,
# which no epoch changes; forging a checkpoint takes that key, at which
# point the party is simply corrupted.  A checkpoint that fails the MAC
# or does not parse is REJECTED (the keys beside it still load) and
# recovery falls back to pure peer state transfer.


def state_path(directory: str | pathlib.Path, party: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"host-{party}" / "state.json"


@dataclass(frozen=True)
class HostState:
    """One host's record: the epoch it stands in and the entry kind it
    said there (``None`` before any entry), the genesis and current
    public bundles, its own party bundle (``None`` in a joiner's seed)
    and its sealed checkpoint (``{body, mac}`` or ``None``)."""

    epoch: int
    kind: str | None
    genesis: Any
    public: Any
    keys: Any
    checkpoint: dict | None = None

    def save(self, directory: str | pathlib.Path, party: int) -> pathlib.Path:
        path = state_path(directory, party)
        path.parent.mkdir(exist_ok=True)
        data = dict(
            epoch=self.epoch, kind=self.kind,
            genesis=keystore.public_to_dict(self.genesis),
            public=keystore.public_to_dict(self.public),
            keys=None if self.keys is None else keystore.party_to_dict(self.keys),
            checkpoint=self.checkpoint,
        )
        return keystore.atomic_write_text(path, json.dumps(data, indent=1))

    @classmethod
    def load(cls, path: pathlib.Path) -> "HostState":
        try:
            data = json.loads(path.read_text())
            public, keys = keystore.public_from_dict(data["public"]), data["keys"]
            return cls(
                int(data["epoch"]), data["kind"],
                keystore.public_from_dict(data["genesis"]), public,
                None if keys is None else keystore.party_from_dict(keys, public),
                data["checkpoint"],
            )
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise keystore.KeystoreError(f"cannot read host record {path}: {exc}") from exc


def _provisioned_public(directory: pathlib.Path):
    """The dealt ``public.json``.  A directory the older shared layout
    took through an epoch switch has an ``epoch.json`` and no host
    records: refused, rather than booted silently at epoch 0."""
    if (directory / "epoch.json").exists():
        raise keystore.KeystoreError(
            f"{directory / 'epoch.json'}: the older shared layout (docs/DEPLOYMENT.md, "
            "\"Upgrading across one record per host\")"
        )
    return keystore.load_public(directory / "public.json")


def _newest_state(directory: pathlib.Path) -> HostState:
    """The newest host record, else the provisioned bundle at epoch 0."""
    records = [HostState.load(path) for path in sorted(directory.glob("host-*/state.json"))]
    if not records:
        public = _provisioned_public(directory)
        return HostState(0, None, public, public, None)
    return max(records, key=lambda state: state.epoch)


def current_membership(directory: str | pathlib.Path) -> tuple[int, Any]:
    """The operator's view of the cluster, ``(epoch, public bundle)``:
    what clients attach to and reconfigurations are signed for."""
    state = _newest_state(pathlib.Path(directory))
    return state.epoch, state.public


def identity_key(directory: str | pathlib.Path, party: int) -> SigningKey:
    """A server's identity signing key as provisioning wrote it (its
    seed in ``host-<i>/``, else its dealt ``server-<i>.json``): no epoch
    changes it, so an operator signs with it at any epoch."""
    directory = pathlib.Path(directory)
    if bootstrap_path(directory, party).exists():
        return load_bootstrap(directory, party).signing_key
    return keystore.load_party(
        directory / f"server-{party}.json", _provisioned_public(directory)
    ).signing_key


def _checkpoint_key(party: int, signing_key: SigningKey) -> bytes:
    return hashlib.sha256(b"repro-checkpoint-v3:%d:%d" % (party, signing_key.x)).digest()


def seal_checkpoint(
    party: int, signing_key: SigningKey, entries: tuple, round_number: int
) -> dict:
    """The delivered log as a record's checkpoint: its canonical wire
    encoding and an HMAC over it."""
    body = wire.dumps((tuple(entries), round_number))
    mac = hmac.new(_checkpoint_key(party, signing_key), body, hashlib.sha256)
    return {"body": body.hex(), "mac": mac.hexdigest()}


def open_checkpoint(party: int, signing_key: SigningKey, sealed: dict) -> tuple[tuple, int] | None:
    """The ``(entries, round)`` of a sealed checkpoint; ``None`` if it is
    malformed or fails the MAC — the caller treats both alike (recover
    purely from peers)."""
    key = _checkpoint_key(party, signing_key)
    try:
        body = bytes.fromhex(sealed["body"])
        mac = hmac.new(key, body, hashlib.sha256).digest()
        if hmac.compare_digest(bytes.fromhex(sealed["mac"]), mac):
            entries, round_number = wire.loads(body)
            if isinstance(entries, tuple) and isinstance(round_number, int):
                return entries, round_number
    except (KeyError, TypeError, ValueError):
        pass
    return None


# -- dealerless bootstrap -----------------------------------------------------------
#
# A DKG deployment has no dealer output to distribute.  The operator
# instead provisions each party a *bootstrap* bundle — identity signing
# key, every server's verify key, pairwise channel keys: the
# authenticated-channel assumption of the model and nothing more — and
# the cluster generates its threshold keys itself (crypto/dkg.py).


@dataclass(frozen=True)
class BootstrapFile:
    """One party's on-disk pre-key identity, its seed
    (``host-<i>/bootstrap-<i>.json``):
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
    return state_path(directory, party).with_name(f"bootstrap-{party}.json")


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
    path = bootstrap_path(directory, bundle.party)
    path.parent.mkdir(exist_ok=True)
    keystore.atomic_write_text(path, json.dumps(data, indent=1))


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
        # A version-1 bundle has none: key generation refuses it.
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

    Writes each server's seed ``host-<i>/bootstrap-<i>.json`` (its
    identity key and every server's verify key), one client's
    ``client-<id>.json`` channel bundle and ``cluster.json`` with a
    free localhost port for each (unless ``cluster``, the other
    :class:`ClusterConfig` fields, has ``addresses``): all a host needs
    to run key generation at boot.
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
    if "addresses" not in cluster:
        cluster["addresses"] = allocate_addresses(identities)
    ClusterConfig(**cluster).save(directory / CLUSTER_FILE)


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
    (:func:`dh_channel_key`).  Its seed, in its own ``host-<i>/``, is the
    bootstrap bundle and a record without keys: the current epoch and
    bundle, and the genesis it replays the history from.
    """
    directory = pathlib.Path(directory)
    newest = _newest_state(directory)
    public = newest.public
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
    HostState(newest.epoch, None, newest.genesis, public, None).save(directory, party)
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
# substrings; a host keeps the ``(kind, fields)`` records itself).  The
# table is the whole vocabulary: kind -> the fields
# after ``party=``, in print order; one left out is not printed.
# ``snapshot`` (a repr, spaces included) runs to the end of its line.

LINE_KINDS: dict[str, tuple[str, ...]] = {
    "listening": ("host", "port", "recovering"),  # its own, older shape
    "replica-checkpoint": ("status",),
    "replica-recovered": ("executed",),
    "replica-abc-stats": ("rounds", "delivered", "mean_batch", "occupancy", "sessions"),
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


def find_event(events: list, kind: str | tuple[str, ...], **match: object) -> dict | None:
    """The fields of the first ``(kind, fields)`` of ``events`` of
    ``kind`` (or of a tuple of kinds) whose fields include ``match``."""
    kinds = (kind,) if isinstance(kind, str) else kind
    wanted = {name: str(value) for name, value in match.items()}
    return next((f for k, f in events if k in kinds and wanted.items() <= f.items()), None)


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
    """One server: keystore + network + protocol runtime + replica.

    ``network`` is the one it serves on: a sweep cell's simulator, which
    the cell runs; by default its own TCP transport (with the fault plan
    of a chaos run's ``faults.json``), which it starts and closes, and
    then it also says every event (:meth:`emit`) on stdout.

    Optional chaos surface:

    * ``byzantine`` — host a corrupted party instead of an honest one
      (a behavior name understood by
      :func:`repro.net.attacks.byzantine_node`, which ``equivocate``
      builds over this host's own honest stack);
    * ``journal`` — append every executed operation to
      ``journal/exec-<party>.jsonl`` for the chaos safety checker;
    * checkpoints — when ``checkpoint_every > 0`` the delivered log is
      persisted (authenticated) every that-many executions and on
      graceful shutdown, and a restart with ``recover=True`` preloads
      it before asking peers for the tail.

    It boots from what its own directory ``host-<i>/`` holds: a record
    with keys is its own state; else a seed (``bootstrap-<i>.json``)
    runs key generation at epoch 0, or joins at the next epoch when a
    keyless record sits beside it; else it reads the dealt bundles.
    Its record (:class:`HostState`) is read once here and rewritten
    whole on entering an epoch and at each checkpoint.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        party: int,
        causal: bool = False,
        network: NetworkBackend | None = None,
        byzantine: str | None = None,
        journal: bool = False,
        checkpoint_every: int = 0,
    ) -> None:
        directory = pathlib.Path(directory)
        self.directory = directory
        self.party = party
        cluster = ClusterConfig.load(directory / CLUSTER_FILE)
        self.io_timeout = cluster.io_timeout
        self._abc_config = cluster.abc_config()
        self._state_machine = KeyValueStore()
        self._causal = causal
        self.epoch = 0
        self.phase = SERVING
        # Signed membership votes for an epoch newer than ours, keyed
        # like the client's: (epoch, canonical public json) -> voters.
        self._stale_votes: dict[tuple[int, str], set[int]] = {}
        path = state_path(directory, party)
        record = HostState.load(path) if path.exists() else None
        self._kind = self._genesis = self._checkpoint = self._preload = None
        self.checkpoint_status = "absent"
        if record is not None and record.keys is not None:  # its own state
            self.epoch, self._kind, self._genesis = record.epoch, record.kind, record.genesis
            self.public, self.keys = record.public, record.keys
            sealed = record.checkpoint
            if sealed is not None:
                self._preload = open_checkpoint(party, self.keys.signing_key, sealed)
                # A rejected log is dropped; the keys beside it stand.
                self._checkpoint = sealed if self._preload else None
                self.checkpoint_status = "loaded" if self._preload else "rejected"
        elif bootstrap_path(directory, party).exists():
            if byzantine is not None or causal:
                raise ValueError("a seeded host must be an honest, non-causal replica")
            bundle = load_bootstrap(directory, party)
            self.keys = dkg.BootstrapKeys(
                party, bundle.signing_key, dict(bundle.channel_keys)
            )
            if record is not None:
                # A keyless record beside the seed (provision_joiner's):
                # join the live cluster at the epoch after its own.
                self.epoch, self._genesis, self.public = (
                    record.epoch, record.genesis, record.public
                )
                self._derive_channel_keys(self.public)
            else:
                # Key generation at epoch 0.  The PKI is all it trusts:
                # every server's identity key, ours among them.
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
            self.phase = Phase("booting", 0 if record is None else self.epoch + 1)
        else:
            self.public = self._genesis = _provisioned_public(directory)
            self.keys = keystore.load_party(
                directory / f"server-{party}.json", self.public
            )
        if self._genesis is not None:
            # The configuration of this incarnation's *executed* history:
            # genesis, advanced only by the Reconfigure operations it
            # executes (_intercept), live and replayed alike.
            self.membership = reconfig.Membership.of(0, self._genesis)
        self._owns_network = network is None
        if network is None:
            faults = None
            if (directory / FAULTS_FILE).exists():
                # Only a chaos run loads the chaos engine.
                from .chaos import load_fault_plan  # lazy: chaos imports us

                faults = load_fault_plan(directory)
            network = TransportNetwork(
                party, cluster.addresses, self.keys.channel_keys, faults=faults
            )
        self.network = network
        self.events: list[tuple[str, dict[str, str]]] = []
        self.byzantine = byzantine
        self._checkpoint_every = checkpoint_every
        self._journal = None
        self.runtime: ProtocolRuntime | None = None
        self.replica: Replica | None = None
        if byzantine is None:
            node = self._stack(self.network)
        else:
            node = byzantine_node(
                byzantine, self.network, party, self.keys, self._stack, party
            )
        self.network.attach(party, node)
        if journal and byzantine is None:
            journal_dir = directory / "journal"
            journal_dir.mkdir(exist_ok=True)
            # "w": the journal is this incarnation's executed sequence;
            # recovery replays the full history into it, so truncating
            # keeps it a single consistent prefix-checkable log.
            self._journal = open(
                journal_dir / f"exec-{party}.jsonl", "w", encoding="utf-8"
            )

    def _stack(self, network: NetworkBackend) -> ProtocolRuntime:
        """This party's honest server on ``network``: the runtime and,
        once the epoch has keys, the replica at the epoch's session with
        the cluster's ``AbcConfig`` and every host hook.  A Byzantine
        host builds the same stack behind its behaviour."""
        self.runtime = ProtocolRuntime(
            self.party, network, self.public, self.keys, seed=self.party
        )
        if self.phase == SERVING:
            self.replica = Replica(
                self._state_machine, causal=self._causal, abc_config=self._abc_config
            )
            self._install_replica_hooks()
            self.runtime.spawn(epoch_service_session(self.epoch), self.replica)
        return self.runtime

    def _install_replica_hooks(self) -> None:
        """Wire the host's observation and reconfiguration hooks into
        the replica instance."""
        self.replica.on_execute = self._on_execute
        self.replica.on_recovered = lambda: self.emit(
            "replica-recovered", executed=len(self.replica.executed)
        )
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

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event as :func:`parse` reads its line; on its own
        transport, also say it on stdout — this process's only ``print``."""
        line = render(kind, self.party, **fields)
        self.events.append(parse(line))
        if self._owns_network:
            print(line, flush=True)

    def _on_execute(self, request, result, rnd) -> None:
        executions = len(self.replica.executed)
        if self._journal is not None:
            self._journal.write(
                json.dumps(
                    {
                        "i": executions,
                        "client": request.client,
                        "nonce": request.nonce,
                        "op": list(request.operation),
                        "round": rnd,
                    }
                )
                + "\n"
            )
            self._journal.flush()
        if self._checkpoint_every and executions % self._checkpoint_every == 0:
            self.write_checkpoint()

    def write_checkpoint(self) -> pathlib.Path | None:
        """Persist the authenticated delivered log in this host's record
        (honest hosts only)."""
        if self.replica is None or self.replica.causal or self.byzantine:
            return None
        self._checkpoint = seal_checkpoint(
            self.party,
            self.keys.signing_key,
            tuple(self.replica.abc.delivered.items()),
            self.replica.abc.round,
        )
        return self._save_state(self.epoch, self._kind, self.public, self.keys)

    def _save_state(self, epoch: int, kind: str | None, public, keys) -> pathlib.Path:
        """Write this host's whole record: the only file it writes after boot."""
        return HostState(
            epoch, kind, self._genesis, public, keys, self._checkpoint
        ).save(self.directory, self.party)

    async def start(self, recover: bool = False) -> None:
        if self._owns_network:
            await self.network.start()
        if recover:  # what a restart found on disk (``absent`` for a seed)
            self.emit("replica-checkpoint", status=self.checkpoint_status)
        if self.phase.name == "booting":
            # No threshold keys anywhere yet?  Generate them; else join.
            if isinstance(self.public, dkg.BootstrapPublic):
                self._start_dkg()
            else:
                self._start_join()
            return
        if recover and self.replica is not None:
            ctx = Context(self.runtime, epoch_service_session(self.epoch))
            if self._preload is not None:
                self.replica.preload_log(ctx, self._preload[0])
            elif self.checkpoint_status == "rejected":
                # Unauthenticated or corrupted: recover purely from peers.
                self.network.trace.bump("chaos.checkpoint_rejected")
            self.replica.begin_recovery(ctx)
            if self.epoch:
                # Say the entry again: killed between the record write
                # and the line, it may never have been said.
                self.emit(self._kind, epoch=self.epoch, n=self.public.n)

    # -- key-material sessions: boot, join, reshare --------------------------------

    def _start_dkg(self) -> None:
        """Dealerless bootstrap: run the key-generation session; the
        replica spawns once the cluster's threshold keys exist."""
        pki = self.membership  # the seed's: every server's identity key
        scheme = threshold_scheme(pki.n, pki.quorum.t, pki.group.q)
        self._run_ladder(
            0,
            "replica-dkg-retry",
            lambda: dkg.key_generation(
                pki.group, scheme, pki.quorum, dict(enumerate(pki.verify_keys)),
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
            # Bootstrap keys become threshold keys, and the first public
            # bundle the genesis of every replay.
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
        for member, key in self._derive_channel_keys(new_public).items():
            self.network.admit_peer(member, None, key)
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
        configuration — writes the host's record (epoch, kind, public
        and party bundles) *before* it swaps keys, so a replica killed at
        any instant restarts into one epoch with its keys.  ``kind``
        and ``fields`` are the entry's stdout record; ``state_transfer``
        asks for Section-6 recovery on the new session (we executed less
        than was ordered).
        """
        old_epoch = self.epoch
        # Epoch 0 of a dealerless boot closes nothing: there is no
        # earlier configuration to keep and no session to tombstone.
        closing = not isinstance(self.public, dkg.BootstrapPublic)
        # A dealerless boot's first keys are its genesis.
        self._genesis = self._genesis or new_public
        self._save_state(target, kind, new_public, new_keys)
        self._kind = kind
        self.public = self.runtime.public = new_public
        self.keys = self.runtime.keys = new_keys
        self.epoch = target
        self.phase = SERVING
        # Members the closed epochs retired (an ordered remove is final
        # and always takes the highest id): drop address, channel key
        # and connection state so a later add reusing the id starts
        # clean and broadcasts stop dialing a dead replica.  The clients
        # in the address book are not members: they stay.
        for member in self.network.parties:
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

        def flush_once() -> None:
            if is_settled():
                return
            instance = self.runtime.instances.get(session)
            flush = getattr(instance, "flush", None)
            if flush is not None:
                flush(Context(self.runtime, session))
            self.network.call_later(self.party, self.io_timeout * 7 / 8, give_up)

        def give_up() -> None:
            if not is_settled():
                retry()

        # On the network's clock; on TCP a raise inside flush() or retry()
        # is counted, kept in network.errors and printed, not lost.
        self.network.call_later(self.party, self.io_timeout / 8, flush_once)

    async def close(self) -> None:
        if self._owns_network:
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
) -> int:
    """Run one replica (``repro run-replica``) until SIGTERM/SIGINT,
    then print its ``replica-abc-stats`` and ``replica-final`` lines:
    rounds, batching, live protocol sessions, executed count and state
    snapshot, which the benchmark's TCP harness reads."""
    host = ReplicaHost(
        directory, party, byzantine=byzantine,
        journal=journal, checkpoint_every=checkpoint_every,
    )
    await host.start(recover=recover)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    address = host.network.listen_address
    host.emit("listening", host=address[0], port=address[1], recovering=recover)
    # Bounded by SIGTERM from the operator, not by wall clock: a
    # replica serves until told to stop.
    await stop.wait()  # repro: noqa-RL005 runs-until-signalled by design
    if host.replica is not None and host.runtime is not None:
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
            sessions=len(host.runtime.instances),
        )
        host.emit(
            "replica-final",
            executed=len(host.replica.executed), snapshot=repr(snapshot),
        )
    else:
        host.emit("replica-final", byzantine=byzantine)
    await host.close()
    return 0
