"""Persisting and distributing the dealer's output.

The trusted dealer runs *once* (Section 2); in any real deployment its
output must then be carried to the servers — the public bundle to
everyone (including clients), and each server's private bundle over a
secure channel.  This module serializes both to plain JSON:

* no pickle — loading reconstructs only the known key dataclasses;
* integers are decimal strings (arbitrary precision survives JSON);
* the quorum system round-trips by *kind* (threshold / hybrid /
  general / explicit maximal sets) and the access structure by its
  monotone formula, so generalized deployments persist faithfully.

Typical flow::

    keys = deal_system(4, rng, t=1)
    write_deployment(keys, directory)        # public.json + server-i.json
    public = load_public(directory / "public.json")
    mine = load_party(directory / "server-2.json", public)
"""

from __future__ import annotations

import json
import os
import pathlib

from ..adversary.formulas import Formula, Leaf, Threshold
from ..adversary.hybrid import HybridQuorumSystem
from ..adversary.quorums import (
    GeneralQuorumSystem,
    QuorumSystem,
    ThresholdQuorumSystem,
)
from ..adversary.structures import AdversaryStructure
from .dealer import (
    PartyKeys,
    PublicKeys,
    SystemKeys,
    assemble_party_keys,
    assemble_public_keys,
)
from .groups import SchnorrGroup
from .lsss import LsssScheme, SlotId
from .schnorr import SigningKey, VerifyKey
from .threshold_sig import (
    QuorumCertScheme,
    QuorumCertShareholder,
    ShoupRsaScheme,
    ShoupRsaShareholder,
)

__all__ = [
    "KeystoreError",
    "public_to_dict",
    "public_from_dict",
    "party_to_dict",
    "party_from_dict",
    "client_to_dict",
    "client_from_dict",
    "atomic_write_text",
    "write_deployment",
    "load_public",
    "load_party",
    "load_client",
]

_VERSION = 1


class KeystoreError(ValueError):
    """Malformed or incompatible keystore data."""


# -- low-level helpers -------------------------------------------------------


def _slot_map(mapping: dict[SlotId, int]) -> dict[str, str]:
    """``slot -> value`` as JSON: a slot is its dotted path, ``-`` the root."""
    return {
        ".".join(str(i) for i in slot) if slot else "-": str(value)
        for slot, value in mapping.items()
    }


def _slot_map_back(data: dict) -> dict[SlotId, int]:
    return {
        () if key == "-" else tuple(int(part) for part in key.split(".")): int(value)
        for key, value in data.items()
    }


def _int_map(mapping: dict) -> dict:
    return {str(k): str(v) for k, v in mapping.items()}


def _int_map_back(data: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in data.items()}


def _formula_to_json(formula: Formula) -> object:
    if isinstance(formula, Leaf):
        return {"leaf": formula.party}
    if isinstance(formula, Threshold):
        return {
            "k": formula.k,
            "children": [_formula_to_json(c) for c in formula.children],
        }
    raise KeystoreError(f"unknown formula node {type(formula).__name__}")


def _formula_from_json(data: object) -> Formula:
    if not isinstance(data, dict):
        raise KeystoreError("malformed formula node")
    if "leaf" in data:
        return Leaf(int(data["leaf"]))
    if "k" in data and "children" in data:
        children = tuple(_formula_from_json(c) for c in data["children"])
        return Threshold(k=int(data["k"]), children=children)
    raise KeystoreError("malformed formula node")


def _quorum_to_json(quorum: QuorumSystem) -> dict:
    if isinstance(quorum, ThresholdQuorumSystem):
        return {"kind": "threshold", "n": quorum.n, "t": quorum.t}
    if isinstance(quorum, HybridQuorumSystem):
        return {"kind": "hybrid", "n": quorum.n, "b": quorum.b, "c": quorum.c}
    if isinstance(quorum, GeneralQuorumSystem):
        return {
            "kind": "general",
            "n": quorum.structure.n,
            "threshold": quorum.structure.threshold,
            "maximal_sets": [sorted(s) for s in quorum.structure.maximal_sets],
        }
    raise KeystoreError(f"unknown quorum system {type(quorum).__name__}")


def _quorum_from_json(data: dict) -> QuorumSystem:
    kind = data.get("kind")
    if kind == "threshold":
        return ThresholdQuorumSystem(n=int(data["n"]), t=int(data["t"]))
    if kind == "hybrid":
        return HybridQuorumSystem(n=int(data["n"]), b=int(data["b"]), c=int(data["c"]))
    if kind == "general":
        structure = AdversaryStructure(
            n=int(data["n"]),
            maximal_sets=tuple(frozenset(s) for s in data["maximal_sets"]),
            threshold=data.get("threshold"),
        )
        return GeneralQuorumSystem(structure=structure)
    raise KeystoreError(f"unknown quorum kind {kind!r}")


# -- public bundle -------------------------------------------------------------


def public_to_dict(public: PublicKeys) -> dict:
    """Serialize the public bundle (safe to hand to anyone)."""
    service = public.service_signature
    if isinstance(service, ShoupRsaScheme):
        service_json: dict = {
            "kind": "rsa",
            "n_parties": service.n_parties,
            "k": service.k,
            "n_modulus": str(service.n_modulus),
            "e": str(service.e),
            "v": str(service.v),
            "v_keys": _int_map(service.v_keys),
        }
    elif isinstance(service, QuorumCertScheme):
        service_json = {"kind": "certs", "tag": service.tag}
    else:
        raise KeystoreError("unknown service signature scheme")
    return {
        "version": _VERSION,
        "n": public.n,
        "group": {
            "p": str(public.group.p),
            "q": str(public.group.q),
            "g": str(public.group.g),
        },
        "quorum": _quorum_to_json(public.quorum),
        "access_formula": _formula_to_json(public.access_scheme.formula),
        "coin_verification": _slot_map(public.coin.verification),
        "encryption": {
            "h": str(public.encryption.h),
            "g_bar": str(public.encryption.g_bar),
            "verification": _slot_map(public.encryption.verification),
        },
        "verify_keys": _int_map({i: k.h for i, k in public.verify_keys.items()}),
        "service_signature": service_json,
    }


def public_from_dict(data: dict) -> PublicKeys:
    """Rebuild the public bundle; raises :class:`KeystoreError` if bad."""
    if data.get("version") != _VERSION:
        raise KeystoreError(f"unsupported keystore version {data.get('version')!r}")
    group = SchnorrGroup(
        p=int(data["group"]["p"]),
        q=int(data["group"]["q"]),
        g=int(data["group"]["g"]),
    )
    service_json = data["service_signature"]
    if service_json["kind"] == "rsa":
        rsa = ShoupRsaScheme(
            n_parties=int(service_json["n_parties"]),
            k=int(service_json["k"]),
            n_modulus=int(service_json["n_modulus"]),
            e=int(service_json["e"]),
            v=int(service_json["v"]),
            v_keys=_int_map_back(service_json["v_keys"]),
        )
    elif service_json["kind"] == "certs":
        rsa = None
    else:
        raise KeystoreError("unknown service signature kind")
    public = assemble_public_keys(
        int(data["n"]),
        group,
        _quorum_from_json(data["quorum"]),
        LsssScheme(formula=_formula_from_json(data["access_formula"]), modulus=group.q),
        {int(i): VerifyKey(group=group, h=int(h)) for i, h in data["verify_keys"].items()},
        _slot_map_back(data["coin_verification"]),
        _slot_map_back(data["encryption"]["verification"]),
        int(data["encryption"]["h"]),
        rsa,
    )
    # Both are functions of the rest of the file; one that disagrees was
    # not written by public_to_dict.
    if int(data["encryption"]["g_bar"]) != public.encryption.g_bar:
        raise KeystoreError("second generator does not belong to the group")
    if rsa is None and service_json["tag"] != public.service_signature.tag:
        raise KeystoreError("unknown service signature tag")
    return public


# -- private bundles -------------------------------------------------------------


def party_to_dict(party: PartyKeys) -> dict:
    """Serialize one server's secret bundle (distribute over a secure
    channel; possession of this file IS the server identity)."""
    signer = party.service_signer
    if isinstance(signer, ShoupRsaShareholder):
        service_json: dict = {"kind": "rsa", "party": signer.party, "s": str(signer.s)}
    elif isinstance(signer, QuorumCertShareholder):
        service_json = {"kind": "certs"}
    else:
        raise KeystoreError("unknown service signer")
    return {
        "version": _VERSION,
        "party": party.party,
        "signing_key": str(party.signing_key.x),
        "coin_subshares": _slot_map(party.coin.subshares),
        "decryption_subshares": _slot_map(party.decryption.subshares),
        "service_signer": service_json,
        "channel_keys": _channel_keys_to_json(party.channel_keys),
    }


def _channel_keys_to_json(channel_keys: dict[int, bytes]) -> dict:
    return {str(peer): key.hex() for peer, key in channel_keys.items()}


def _channel_keys_from_json(data: object) -> dict[int, bytes]:
    if data is None:
        return {}  # pre-transport bundles carried no channel keys
    if not isinstance(data, dict):
        raise KeystoreError("malformed channel keys")
    try:
        return {int(peer): bytes.fromhex(key) for peer, key in data.items()}
    except (TypeError, ValueError) as exc:
        raise KeystoreError("malformed channel keys") from exc


def party_from_dict(data: dict, public: PublicKeys) -> PartyKeys:
    """Rebuild a server's secret bundle against a loaded public bundle."""
    if data.get("version") != _VERSION:
        raise KeystoreError(f"unsupported keystore version {data.get('version')!r}")
    service_json = data["service_signer"]
    if service_json["kind"] == "rsa":
        rsa = ShoupRsaShareholder(
            party=int(service_json["party"]),
            public=public.service_signature,
            s=int(service_json["s"]),
        )
    elif service_json["kind"] == "certs":
        rsa = None
    else:
        raise KeystoreError("unknown service signer kind")
    try:
        return assemble_party_keys(
            int(data["party"]),
            public,
            SigningKey(group=public.group, x=int(data["signing_key"])),
            _slot_map_back(data["coin_subshares"]),
            _slot_map_back(data["decryption_subshares"]),
            _channel_keys_from_json(data.get("channel_keys")),
            rsa,
        )
    except ValueError as exc:  # an RSA share for a certificate bundle, or the reverse
        raise KeystoreError(str(exc)) from exc


# -- client channel bundles --------------------------------------------------------


def client_to_dict(client: int, channel_keys: dict[int, bytes]) -> dict:
    """Serialize one client's channel-key bundle (secret: it IS the
    client's transport identity)."""
    return {
        "version": _VERSION,
        "client": client,
        "channel_keys": _channel_keys_to_json(channel_keys),
    }


def client_from_dict(data: dict) -> tuple[int, dict[int, bytes]]:
    """Rebuild ``(client id, peer -> key)`` from a client bundle."""
    if data.get("version") != _VERSION:
        raise KeystoreError(f"unsupported keystore version {data.get('version')!r}")
    return int(data["client"]), _channel_keys_from_json(data.get("channel_keys"))


# -- file helpers ------------------------------------------------------------------


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Crash-safe file write: temp file + fsync + atomic rename.

    Key files are rewritten at every epoch change, and the chaos engine
    kills replicas at arbitrary instants — a plain ``write_text`` could
    leave a truncated ``server-i.json`` that bricks the replica on
    restart.  Writing to a sibling temp file, fsyncing it, and
    ``os.replace``-ing over the target means any observer (including a
    post-kill restart) sees either the complete old file or the
    complete new one, never a prefix.
    """
    path = pathlib.Path(path)
    # Per-process temp name: cluster-mates legitimately write the same
    # public.json/epoch.json concurrently and must not clobber each
    # other's half-written temp file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        # The target is untouched; only the temp file may be partial.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return path


def write_deployment(keys: SystemKeys, directory: str | pathlib.Path) -> list[pathlib.Path]:
    """Write ``public.json`` plus one ``server-<i>.json`` per server."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    public_path = directory / "public.json"
    atomic_write_text(public_path, json.dumps(public_to_dict(keys.public), indent=1))
    written.append(public_path)
    for party, bundle in sorted(keys.private.items()):
        path = directory / f"server-{party}.json"
        atomic_write_text(path, json.dumps(party_to_dict(bundle), indent=1))
        written.append(path)
    for client, channel_keys in sorted(keys.client_channels.items()):
        path = directory / f"client-{client}.json"
        atomic_write_text(path, json.dumps(client_to_dict(client, channel_keys), indent=1))
        written.append(path)
    return written


def _read_bundle(path: str | pathlib.Path, what: str) -> dict:
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise KeystoreError(f"cannot read {what} bundle: {exc}") from exc


def load_public(path: str | pathlib.Path) -> PublicKeys:
    """Load the public bundle from ``public.json``."""
    return public_from_dict(_read_bundle(path, "public"))


def load_party(path: str | pathlib.Path, public: PublicKeys) -> PartyKeys:
    """Load one server's secret bundle from ``server-<i>.json``."""
    return party_from_dict(_read_bundle(path, "party"), public)


def load_client(path: str | pathlib.Path) -> tuple[int, dict[int, bytes]]:
    """Load a client's channel-key bundle from ``client-<id>.json``."""
    return client_from_dict(_read_bundle(path, "client"))
