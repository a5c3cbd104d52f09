"""Wire format: safe serialization for every protocol message.

The simulator passes Python objects between nodes; a deployment passes
bytes.  This module closes that gap with a canonical, self-describing,
*safe* encoding (no pickle — deserialization can only ever construct
the registered, frozen message dataclasses), so that

* every protocol message can be measured in real wire bytes (the size
  benchmarks E12/E13 build on the same encoding), and
* the test suite can run entire protocol stacks through a
  byte-serializing network, proving no protocol secretly depends on
  object identity or unserializable state.

Supported values: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
``tuple``, ``frozenset``, ``dict`` (any encodable keys) and registered
dataclasses.  Unknown types raise :class:`WireError` at encode time;
malformed or unregistered input raises at decode time.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable

__all__ = ["WireError", "register", "registered_types", "dumps", "loads"]

_MAX_DEPTH = 32
_MAX_LENGTH = 1 << 24


class WireError(ValueError):
    """Malformed, oversized, or unregistered wire data."""


_length = struct.Struct(">I")
_pack_length = _length.pack
_unpack_length = _length.unpack_from
_N, _T, _F, _I, _S, _B, _L, _E, _D, _C = b"NTFISBLEDC"

# Registration compiles a codec per class.  The encoder finds a writer
# by the value's exact type (the built-ins' writers are added below); a
# dataclass's writer holds the bytes that open it (tag, name, field
# count) and the attributes to walk.  The decoder finds the class, and
# the field count it must read, by the raw name bytes.
_Writer = Callable[[bytearray, Any, int], None]
_WRITERS: dict[type, _Writer] = {}
_BY_NAME: dict[bytes, tuple[type, int]] = {}
_LOADED = False


def register(cls: type) -> type:
    """Register a (frozen) dataclass for wire transport."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} is not a dataclass")
    name = cls.__name__.encode("ascii")
    if _BY_NAME.get(name, (cls,))[0] is not cls:
        raise WireError(f"duplicate wire registration for {cls.__name__}")
    attributes = tuple(field.name for field in dataclasses.fields(cls))
    header = (
        b"C" + _pack_length(len(name)) + name + _pack_length(len(attributes))
    )

    def write(out: bytearray, value: object, depth: int) -> None:
        out += header
        for attribute in attributes:
            _write(out, getattr(value, attribute), depth)

    _WRITERS[cls] = write
    _BY_NAME[name] = (cls, len(attributes))
    return cls


def registered_types() -> dict[str, type]:
    _ensure_registry()
    return {name.decode("ascii"): cls for name, (cls, _) in _BY_NAME.items()}


def _ensure_registry() -> None:
    """Populate the registry with every message and crypto object the
    stack sends (imported lazily to avoid cycles)."""
    global _LOADED
    if _LOADED:
        return
    from ..baselines import leader_based
    from ..core import (
        atomic_broadcast,
        binary_agreement,
        cks_agreement,
        consistent_broadcast,
        multivalued_agreement,
        optimistic,
        reliable_broadcast,
        secure_causal,
    )
    from ..crypto import coin, dkg, schnorr, threshold_enc, threshold_sig, zkp
    from ..smr import reconfig, replica, state_machine

    classes = [
        schnorr.Signature,
        zkp.DleqProof,
        zkp.SchnorrProof,
        coin.CoinShare,
        threshold_enc.Ciphertext,
        threshold_enc.DecryptionShare,
        threshold_sig.QuorumCertificate,
        threshold_sig.RsaSignature,
        threshold_sig.RsaSignatureShare,
        reliable_broadcast.RbcSend,
        reliable_broadcast.RbcEcho,
        reliable_broadcast.RbcReady,
        consistent_broadcast.CbcSend,
        consistent_broadcast.CbcEchoSignature,
        consistent_broadcast.CbcFinal,
        consistent_broadcast.CbcDelivery,
        binary_agreement.AbaBval,
        binary_agreement.AbaAux,
        binary_agreement.AbaConf,
        binary_agreement.AbaCoinShare,
        binary_agreement.AbaDone,
        cks_agreement.CksPreVote,
        cks_agreement.CksMainVote,
        cks_agreement.CksCoinShare,
        cks_agreement.CksDone,
        multivalued_agreement.MvbaPermShare,
        multivalued_agreement.MvbaValue,
        multivalued_agreement.MvbaDecision,
        atomic_broadcast.AbcProposal,
        atomic_broadcast.AbcBatchRequest,
        atomic_broadcast.AbcBatch,
        atomic_broadcast.AbcRejoin,
        secure_causal.ScDecryptionShare,
        optimistic.OptForward,
        optimistic.OptOrder,
        optimistic.OptAck,
        optimistic.OptCommit,
        optimistic.OptComplain,
        optimistic.OptState,
        leader_based.PrePrepare,
        leader_based.Prepare,
        leader_based.Commit,
        leader_based.ViewChange,
        leader_based.NewView,
        replica.SubmitRequest,
        replica.SubmitUnordered,
        replica.SubmitEncrypted,
        replica.RecoverQuery,
        replica.RecoverLog,
        state_machine.Request,
        state_machine.Reply,
        dkg.FeldmanTree,
        dkg.DkgCommit,
        dkg.ReshareCommit,
        dkg.DkgStatus,
        dkg.DkgDefense,
        dkg.DkgReady,
        reconfig.EpochError,
        reconfig.MembershipQuery,
        reconfig.MembershipInfo,
    ]
    for cls in classes:
        register(cls)
    _LOADED = True


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
#
# value     = tag(1) || body
# N T F     = no body
# I S B     = length(4, big-endian) || decimal ASCII / UTF-8 / raw bytes
# L         = count(4) || value*
# E D       = count(4) || encoded members (key||value for D), sorted
# C         = length(4) || class name || field count(4) || value*


def dumps(value: object) -> bytes:
    """Encode a payload into canonical wire bytes."""
    _ensure_registry()
    out = bytearray()
    _write(out, value, 0)
    return bytes(out)


def _write(out: bytearray, value: object, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise WireError("value too deeply nested")
    writer = _WRITERS.get(type(value))
    if writer is None:
        writer = _inherited_writer(value)
    writer(out, value, depth + 1)


def _inherited_writer(value: object) -> _Writer:
    """A subclass is written as the built-in it extends
    (``hashing.Encoded`` is ``bytes``); nothing else has a writer."""
    for base in _BUILTINS:
        if isinstance(value, base):
            return _WRITERS[base]
    kind = type(value).__name__
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise WireError(f"unregistered dataclass {kind}")
    raise WireError(f"cannot encode {kind}")


def _write_none(out: bytearray, value: None, depth: int) -> None:
    out += b"N"


def _write_bool(out: bytearray, value: bool, depth: int) -> None:
    out += b"T" if value else b"F"


def _write_int(out: bytearray, value: int, depth: int) -> None:
    body = b"%d" % value
    out += b"I"
    out += _pack_length(len(body))
    out += body


def _write_str(out: bytearray, value: str, depth: int) -> None:
    body = value.encode("utf-8")
    out += b"S"
    out += _pack_length(len(body))
    out += body


def _write_bytes(out: bytearray, value: bytes, depth: int) -> None:
    out += b"B"
    out += _pack_length(len(value))
    out += value


def _write_tuple(out: bytearray, value: tuple, depth: int) -> None:
    out += b"L"
    out += _pack_length(len(value))
    for item in value:
        _write(out, item, depth)


def _fragment(value: object, depth: int) -> bytes:
    """One member of a set or dict, encoded apart so members can sort."""
    fragment = bytearray()
    _write(fragment, value, depth)
    return bytes(fragment)


def _write_frozenset(out: bytearray, value: frozenset, depth: int) -> None:
    members = sorted(_fragment(item, depth) for item in value)
    out += b"E"
    out += _pack_length(len(members))
    out += b"".join(members)


def _write_dict(out: bytearray, value: dict, depth: int) -> None:
    members = sorted(
        _fragment(key, depth) + _fragment(val, depth) for key, val in value.items()
    )
    out += b"D"
    out += _pack_length(len(members))
    out += b"".join(members)


# In the order a subclass is matched against them; ``bool`` cannot be
# subclassed and is found by exact type before ``int`` is tried.
_BUILTINS = (int, str, bytes, tuple, frozenset, dict)
_WRITERS.update(
    {
        type(None): _write_none,
        bool: _write_bool,
        int: _write_int,
        str: _write_str,
        bytes: _write_bytes,
        tuple: _write_tuple,
        frozenset: _write_frozenset,
        dict: _write_dict,
    }
)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def loads(data: bytes) -> object:
    """Decode wire bytes; raises :class:`WireError` on any malformation."""
    _ensure_registry()
    value, offset = _read(bytes(data), 0, 0)
    if offset != len(data):
        raise WireError("trailing bytes")
    return value


def _read(data: bytes, offset: int, depth: int) -> tuple[object, int]:
    if depth > _MAX_DEPTH:
        raise WireError("wire data too deeply nested")
    try:
        tag = data[offset]
    except IndexError:
        raise WireError("truncated") from None
    offset += 1
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    # Every other tag is followed by a 4-byte length or count.
    try:
        (length,) = _unpack_length(data, offset)
    except struct.error:
        raise WireError("truncated length") from None
    if length > _MAX_LENGTH:
        raise WireError("length bound exceeded")
    offset += 4
    if tag == _I or tag == _S or tag == _B:
        end = offset + length
        if end > len(data):
            raise WireError("truncated body")
        body = data[offset:end]
        if tag == _B:
            return body, end
        try:
            if tag == _S:
                return body.decode("utf-8"), end
            return int(body), end
        except UnicodeDecodeError as exc:
            raise WireError("bad text encoding") from exc
        except ValueError as exc:
            raise WireError("bad integer") from exc
    if tag == _L or tag == _E:
        items = []
        depth += 1
        for _ in range(length):
            item, offset = _read(data, offset, depth)
            items.append(item)
        if tag == _L:
            return tuple(items), offset
        try:
            return frozenset(items), offset
        except TypeError as exc:
            raise WireError("unhashable frozenset member") from exc
    if tag == _D:
        out: dict = {}
        depth += 1
        for _ in range(length):
            key, offset = _read(data, offset, depth)
            val, offset = _read(data, offset, depth)
            try:
                out[key] = val
            except TypeError as exc:
                raise WireError("unhashable dict key") from exc
        return out, offset
    if tag == _C:
        end = offset + length
        if end > len(data):
            raise WireError("truncated class name")
        name = data[offset:end]
        entry = _BY_NAME.get(name)
        if entry is None:
            raise WireError(f"unknown wire type {name!r}")
        cls, expected = entry
        try:
            (count,) = _unpack_length(data, end)
        except struct.error:
            raise WireError("truncated length") from None
        if count != expected:
            raise WireError(f"field count mismatch for {cls.__name__}")
        offset = end + 4
        values = []
        depth += 1
        for _ in range(count):
            value, offset = _read(data, offset, depth)
            values.append(value)
        try:
            return cls(*values), offset
        except (TypeError, ValueError) as exc:
            raise WireError(f"cannot reconstruct {cls.__name__}") from exc
    raise WireError(f"unknown tag {bytes((tag,))!r}")
