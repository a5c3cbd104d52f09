"""The one grammar for protocol values.

Every guarantee in the stack rests on parties hashing, signing and
parsing *the same bytes* for the same value, so there is exactly one
writer and one reader, here, below ``crypto/``: the wire
(:mod:`repro.net.wire`), every random-oracle input
(:mod:`repro.crypto.hashing`) and the plaintext of a confidential
request (``smr/``) are all this module's output.  The grammar itself —
tags, lengths, the integer form, what is hashed and what is framed —
is stated once, in docs/PROTOCOLS.md ("Encoding").

Values: ``None``, ``bool``, ``int``, ``str``, ``bytes``, ``tuple``,
``frozenset``, ``dict`` and dataclasses registered with
:func:`register` (at their definition, so a value that exists can
always be written).  The reader is safe on untrusted input: bounded
depth and length, canonical (``dumps(loads(x)) == x`` for every ``x``
it accepts) and able to construct only registered dataclasses.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable

__all__ = [
    "CodecError",
    "Encoded",
    "MAX_DEPTH",
    "MAX_LENGTH",
    "register",
    "registered_types",
    "write",
    "dumps",
    "loads",
]

MAX_DEPTH = 32
MAX_LENGTH = 1 << 24


class CodecError(ValueError):
    """Unencodable value, or malformed, oversized or unregistered bytes."""


class Encoded(bytes):
    """Output of the writer, to be spliced verbatim into a hash input.

    The writer is concatenative, so a statement many hashes share (the
    message under every signature of a certificate) is rendered once,
    wrapped as ``Encoded`` and handed to each of them as a part of
    :func:`repro.crypto.hashing.encode`: the bytes hashed are exactly
    those of encoding the statement in place.  A part of a hash input,
    not a value: the writer refuses one (a spliced body cannot be read
    back) and the reader never produces one, so no message carries one
    and no peer can supply one.
    """

    __slots__ = ()


_length = struct.Struct(">I")
_pack_length = _length.pack
_unpack_length = _length.unpack_from
_N, _T, _F, _J, _K, _S, _B, _L, _E, _D, _C = b"NTFjkSBLEDC"

# Registration compiles a codec per class.  The writer is found by the
# value's exact type (the built-ins' writers are added below); a
# dataclass's writer holds the bytes that open it (tag, name, field
# count) and the attributes to walk.  The reader finds the class, and
# the field count it must read, by the raw name bytes.
_Writer = Callable[[bytearray, Any, int], None]
_WRITERS: dict[type, _Writer] = {}
_BY_NAME: dict[bytes, tuple[type, int]] = {}


def register(cls: type) -> type:
    """Class decorator: give a (frozen) dataclass a writer and let the
    reader construct it."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} is not a dataclass")
    name = cls.__name__.encode("ascii")
    if _BY_NAME.get(name, (cls,))[0] is not cls:
        raise CodecError(f"duplicate registration for {cls.__name__}")
    attributes = tuple(field.name for field in dataclasses.fields(cls))
    header = b"C" + _pack_length(len(name)) + name + _pack_length(len(attributes))

    def write_fields(out: bytearray, value: object, depth: int) -> None:
        out += header
        for attribute in attributes:
            write(out, getattr(value, attribute), depth)

    _WRITERS[cls] = write_fields
    _BY_NAME[name] = (cls, len(attributes))
    return cls


def registered_types() -> dict[str, type]:
    return {name.decode("ascii"): cls for name, (cls, _) in _BY_NAME.items()}


# -- writing -------------------------------------------------------------


def dumps(value: object) -> bytes:
    """Encode one value into its canonical bytes."""
    out = bytearray()
    write(out, value, 0)
    return bytes(out)


def write(out: bytearray, value: object, depth: int) -> None:
    """Append the encoding of ``value`` to ``out``."""
    if depth > MAX_DEPTH:
        raise CodecError("value too deeply nested")
    writer = _WRITERS.get(type(value))
    if writer is None:
        writer = _inherited_writer(value)
    writer(out, value, depth + 1)


def _inherited_writer(value: object) -> _Writer:
    """A subclass is written as the built-in it extends; nothing else
    has a writer."""
    for base in _BUILTINS:
        if isinstance(value, base):
            return _WRITERS[base]
    kind = type(value).__name__
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"unregistered dataclass {kind}")
    raise CodecError(f"cannot encode {kind}")


def _write_none(out: bytearray, value: None, depth: int) -> None:
    out += b"N"


def _write_bool(out: bytearray, value: bool, depth: int) -> None:
    out += b"T" if value else b"F"


def _write_int(out: bytearray, value: int, depth: int) -> None:
    if value < 0:
        value = -value
        out += b"k"
    else:
        out += b"j"
    body = value.to_bytes((value.bit_length() + 7) >> 3, "big")
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


def _refuse_encoded(out: bytearray, value: Encoded, depth: int) -> None:
    raise CodecError("Encoded is part of a hash input, not a value")


def _write_tuple(out: bytearray, value: tuple, depth: int) -> None:
    out += b"L"
    out += _pack_length(len(value))
    for item in value:
        write(out, item, depth)


def _fragment(value: object, depth: int) -> bytes:
    """One member of a set or dict, encoded apart so members can sort."""
    fragment = bytearray()
    write(fragment, value, depth)
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
        Encoded: _refuse_encoded,
        tuple: _write_tuple,
        frozenset: _write_frozenset,
        dict: _write_dict,
    }
)


# -- reading -------------------------------------------------------------


def loads(data: bytes) -> object:
    """Decode one value; raises :class:`CodecError` on any malformation."""
    value, offset = _read(bytes(data), 0, 0)
    if offset != len(data):
        raise CodecError("trailing bytes")
    return value


def _read(data: bytes, offset: int, depth: int) -> tuple[object, int]:
    if depth > MAX_DEPTH:
        raise CodecError("data too deeply nested")
    try:
        tag = data[offset]
    except IndexError:
        raise CodecError("truncated") from None
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
        raise CodecError("truncated length") from None
    if length > MAX_LENGTH:
        raise CodecError("length bound exceeded")
    offset += 4
    if tag == _J or tag == _K or tag == _S or tag == _B:
        end = offset + length
        if end > len(data):
            raise CodecError("truncated body")
        body = data[offset:end]
        if tag == _B:
            return body, end
        if tag == _S:
            try:
                return body.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise CodecError("bad text encoding") from exc
        # One spelling per integer: no leading zero byte, no negative zero.
        if body[:1] == b"\x00" or (tag == _K and not body):
            raise CodecError("non-minimal integer")
        magnitude = int.from_bytes(body, "big")
        return (-magnitude if tag == _K else magnitude), end
    if tag == _L:
        items = []
        depth += 1
        for _ in range(length):
            item, offset = _read(data, offset, depth)
            items.append(item)
        return tuple(items), offset
    if tag == _E or tag == _D:
        # Members (key || value for D) arrive as the writer sends them,
        # strictly ascending by encoding, and none may collapse into
        # another (``True`` and ``1`` are one key to Python).
        pairs = tag == _D
        members: list = []
        previous = b""
        depth += 1
        for _ in range(length):
            start = offset
            member, offset = _read(data, offset, depth)
            if pairs:
                val, offset = _read(data, offset, depth)
                member = (member, val)
            fragment = data[start:offset]
            if fragment <= previous:
                raise CodecError("members out of order")
            previous = fragment
            members.append(member)
        try:
            collection = dict(members) if pairs else frozenset(members)
        except TypeError as exc:
            raise CodecError("unhashable member") from exc
        if len(collection) != length:
            raise CodecError("duplicate member")
        return collection, offset
    if tag == _C:
        end = offset + length
        if end > len(data):
            raise CodecError("truncated class name")
        name = data[offset:end]
        entry = _BY_NAME.get(name)
        if entry is None:
            raise CodecError(f"unknown type {name!r}")
        cls, expected = entry
        try:
            (count,) = _unpack_length(data, end)
        except struct.error:
            raise CodecError("truncated length") from None
        if count != expected:
            raise CodecError(f"field count mismatch for {cls.__name__}")
        offset = end + 4
        values = []
        depth += 1
        for _ in range(count):
            value, offset = _read(data, offset, depth)
            values.append(value)
        try:
            return cls(*values), offset
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot reconstruct {cls.__name__}") from exc
    raise CodecError(f"unknown tag {bytes((tag,))!r}")
