"""Random-oracle instantiations (Bellare-Rogaway [2]) used across the stack.

The CKS agreement protocol, the TDH2 cryptosystem and Shoup's threshold
signatures are proved secure in the random oracle model; following common
practice each distinct oracle is instantiated as SHA-256 with a unique
domain-separation tag.  Helpers map hashes to integers, to exponents mod
q and to group elements.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable

from .groups import SchnorrGroup

__all__ = [
    "Encoded",
    "hash_bytes",
    "hash_to_int",
    "hash_to_exponent",
    "hash_to_group",
    "encode",
    "xor_bytes",
    "mgf1",
]


class Encoded(bytes):
    """Output of :func:`encode` that is spliced verbatim as a part.

    ``encode`` is concatenative — ``encode(a, *b) == encode(a) +
    encode(*b)`` — so a statement that many hashes share (the message
    under every signature of a certificate) is rendered once, wrapped
    as ``Encoded(encode(statement))`` and handed to each of them: the
    bytes hashed, and with them every challenge and signature, are
    exactly those of encoding the statement in place.  Never decoded
    from the wire, so a peer cannot supply one.
    """

    __slots__ = ()


# Dataclass field names per type: reflecting on every instance
# (``dataclasses.fields``) costs more than encoding a small one.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(cls):
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def encode(*parts: object) -> bytes:
    """Deterministic, unambiguous encoding of heterogeneous values.

    Each part is rendered with an explicit type tag and length prefix so
    that no two distinct tuples collide (the usual concatenation pitfall).
    """
    return bytes(_encode(parts))


def _encode(parts: Iterable[object]) -> bytearray:
    out = bytearray()
    for part in parts:
        if isinstance(part, bytes):
            if isinstance(part, Encoded):
                out += part
                continue
            tag, body = b"B", part
        elif isinstance(part, str):
            tag, body = b"S", part.encode("utf-8")
        elif isinstance(part, bool):
            tag, body = b"T", (b"\x01" if part else b"\x00")
        elif isinstance(part, int):
            tag, body = b"I", str(part).encode("ascii")
        elif isinstance(part, (tuple, list)):
            tag, body = b"L", _encode(part)
        elif isinstance(part, (frozenset, set)):
            tag, body = b"F", _encode(sorted(part, key=repr))
        elif isinstance(part, dict):
            items = sorted(part.items(), key=lambda kv: repr(kv[0]))
            tag, body = b"D", _encode(item for pair in items for item in pair)
        elif part is None:
            tag, body = b"N", b""
        elif (names := _field_names(type(part))) is not None:
            fields = [getattr(part, name) for name in names]
            tag, body = b"C", _encode((type(part).__name__, fields))
        else:
            raise TypeError(f"cannot encode {type(part).__name__}")
        out += tag
        out += len(body).to_bytes(8, "big")
        out += body
    return out


def _digest(prefix: bytes, *bodies: bytes) -> bytes:
    h = hashlib.sha256(prefix)
    for body in bodies:
        h.update(body)
    return h.digest()


def hash_bytes(domain: str, *parts: object) -> bytes:
    """SHA-256 under a domain-separation tag."""
    return _digest(domain.encode("utf-8") + b"\x00", _encode(parts))


def hash_to_int(domain: str, *parts: object, bits: int = 256) -> int:
    """Hash to an integer of up to ``bits`` bits via counter-mode SHA-256.

    Block ``i`` is ``hash_bytes(domain, i, *parts)``; the parts are
    encoded once and only the counter per block.
    """
    needed = (bits + 7) // 8
    prefix = domain.encode("utf-8") + b"\x00"
    body = _encode(parts)
    out = bytearray()
    counter = 0
    while len(out) < needed:
        out += _digest(prefix, _encode((counter,)), body)
        counter += 1
    return int.from_bytes(bytes(out[:needed]), "big") >> (8 * needed - bits)


def hash_to_exponent(group: SchnorrGroup, domain: str, *parts: object) -> int:
    """Hash into Z_q (never zero, so results are usable as challenges)."""
    value = hash_to_int(domain, *parts, bits=group.q.bit_length() + 64)
    return value % (group.q - 1) + 1


# hash_to_group is a deterministic oracle and its hottest inputs recur
# heavily (every share of a named coin re-derives H(C)); memoize hashable
# inputs with a bounded cache.
_TO_GROUP_CACHE: dict = {}
_TO_GROUP_CACHE_MAX = 4096


def hash_to_group(group: SchnorrGroup, domain: str, *parts: object) -> int:
    """Hash into the order-q subgroup (used e.g. to name coins in [8])."""
    try:
        key = (group.p, group.g, domain, parts)
        cached = _TO_GROUP_CACHE.get(key)
    except TypeError:  # unhashable parts: compute without memoizing
        key = None
        cached = None
    if cached is not None:
        return cached
    value = hash_to_int(domain, *parts, bits=group.p.bit_length() + 64)
    element = group.element_from_bytes(value)
    if key is not None:
        if len(_TO_GROUP_CACHE) >= _TO_GROUP_CACHE_MAX:
            _TO_GROUP_CACHE.clear()
        _TO_GROUP_CACHE[key] = element
    return element


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal lengths")
    return bytes(x ^ y for x, y in zip(a, b))


def mgf1(seed: bytes, length: int, domain: str = "mgf1") -> bytes:
    """Mask generation function (counter-mode hash), for hybrid encryption."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hash_bytes(domain, seed, counter)
        counter += 1
    return bytes(out[:length])


def hash_transcript(domain: str, items: Iterable[object]) -> bytes:
    """Hash an iterable of encodable items (order-sensitive)."""
    return hash_bytes(domain, list(items))
