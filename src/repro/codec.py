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
import operator
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
# count) and reads its fields in one call.  The reader finds the class,
# and the field count it must read, by the raw name bytes.
#
# Every writer is ``writer(out, value, depth)``, ``depth`` being the
# value's own nesting level (0 at the top).  A container writes its
# members at ``depth + 1`` through :func:`_write_items`, which checks the
# bound once for all of them, writes ``int``, ``bytes`` and ``str``
# members in place, without a writer call, and a ``tuple`` member by
# calling itself.
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
    # attrgetter reads every field in one call: a tuple for two names or
    # more, the bare value for one.
    read = operator.attrgetter(*attributes) if attributes else lambda value: ()
    single = len(attributes) == 1

    def write_fields(out: bytearray, value: object, depth: int) -> None:
        out += header
        fields = read(value)
        _write_items(out, (fields,) if single else fields, depth + 1)

    _WRITERS[cls] = write_fields
    _BY_NAME[name] = (cls, len(attributes))
    return cls


def registered_types() -> dict[str, type]:
    return {name.decode("ascii"): cls for name, (cls, _) in _BY_NAME.items()}


# -- writing -------------------------------------------------------------


def dumps(value: object) -> bytes:
    """Encode one value into its canonical bytes."""
    out = bytearray()
    _write_items(out, (value,), 0)
    return bytes(out)


def write(out: bytearray, value: object, depth: int) -> None:
    """Append the encoding of ``value``, nested ``depth`` levels deep, to
    ``out``."""
    _write_items(out, (value,), depth)


# The tag and length that open a value, in one call.
_pack_head = struct.Struct(">cI").pack
# Party ids, indices and small counters, rendered whole at import: zero
# has an empty body, the others one byte.
_SMALL_INTS = (_pack_head(b"j", 0),) + tuple(
    _pack_head(b"j", 1) + bytes([i]) for i in range(1, 64)
)


def _write_items(out: bytearray, items: tuple, depth: int) -> None:
    """Append the encoding of each of ``items``, all nested ``depth``
    levels deep."""
    if depth > MAX_DEPTH and items:
        raise CodecError("value too deeply nested")
    for item in items:
        kind = type(item)
        if kind is int:
            if 0 <= item < 64:
                out += _SMALL_INTS[item]
                continue
            if item < 0:
                item = -item
                tag = b"k"
            else:
                tag = b"j"
            size = (item.bit_length() + 7) >> 3
            out += _pack_head(tag, size)
            out += item.to_bytes(size, "big")
        elif kind is bytes:
            out += _pack_head(b"B", len(item))
            out += item
        elif kind is str:
            body = item.encode("utf-8")
            out += _pack_head(b"S", len(body))
            out += body
        elif kind is tuple:
            out += _pack_head(b"L", len(item))
            _write_items(out, item, depth + 1)
        else:
            writer = _WRITERS.get(kind)
            if writer is not None:
                writer(out, item, depth)
            else:
                _write_items(out, (_as_builtin(item),), depth)


def _as_builtin(value: object) -> object:
    """A subclass is written as the built-in it extends; nothing else
    has a writer."""
    for base, convert in _BUILTINS:
        if isinstance(value, base):
            return convert(value)
    kind = type(value).__name__
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"unregistered dataclass {kind}")
    raise CodecError(f"cannot encode {kind}")


def _write_none(out: bytearray, value: None, depth: int) -> None:
    out += b"N"


def _write_bool(out: bytearray, value: bool, depth: int) -> None:
    out += b"T" if value else b"F"


def _refuse_encoded(out: bytearray, value: Encoded, depth: int) -> None:
    raise CodecError("Encoded is part of a hash input, not a value")


def _fragment(members: tuple, depth: int) -> bytes:
    """One member of a set (or key and value of a dict), encoded apart
    so members can sort."""
    fragment = bytearray()
    _write_items(fragment, members, depth)
    return bytes(fragment)


def _write_frozenset(out: bytearray, value: frozenset, depth: int) -> None:
    members = sorted([_fragment((item,), depth + 1) for item in value])
    out += _pack_head(b"E", len(members))
    out += b"".join(members)


def _write_dict(out: bytearray, value: dict, depth: int) -> None:
    members = sorted([_fragment(pair, depth + 1) for pair in value.items()])
    out += _pack_head(b"D", len(members))
    out += b"".join(members)


# A subclass's base and how to make the plain built-in from it, in the
# order they are tried; ``bool`` cannot be subclassed and is found by
# exact type before ``int`` is tried.
_BUILTINS = (
    (int, int.__index__),
    (str, str.__str__),
    (bytes, bytes),
    (tuple, tuple),
    (frozenset, frozenset),
    (dict, dict),
)
_WRITERS.update(
    {
        type(None): _write_none,
        bool: _write_bool,
        Encoded: _refuse_encoded,
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
