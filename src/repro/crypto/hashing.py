"""Random-oracle instantiations (Bellare-Rogaway [2]) used across the stack.

The CKS agreement protocol, the TDH2 cryptosystem and Shoup's threshold
signatures are proved secure in the random oracle model; following common
practice each distinct oracle is instantiated as SHA-256 with a unique
domain-separation tag.  Helpers map hashes to integers, to Fiat-Shamir
challenges, to exponents mod q and to group elements.

What is hashed is ``domain || 0x00 || encode(*parts)``, and ``encode``
is the writer of :mod:`repro.codec` — the bytes the wire carries for
the same value (docs/PROTOCOLS.md, "Encoding").
"""

from __future__ import annotations

import hashlib

from ..codec import Encoded, write
from .groups import SchnorrGroup

__all__ = [
    "CHALLENGE_BITS",
    "Encoded",
    "hash_bytes",
    "hash_to_int",
    "hash_to_challenge",
    "is_challenge",
    "hash_to_exponent",
    "hash_to_group",
    "encode",
    "xor_bytes",
    "mgf1",
]


def encode(*parts: object) -> bytes:
    """The codec's encoding of each part, laid end to end.

    Every part carries its own tag and length, so no two distinct
    argument lists collide (the usual concatenation pitfall) and
    ``encode(a, *b) == encode(a) + encode(*b)``; ``encode(v)`` is
    ``wire.dumps(v)`` for every value the wire carries.  A part that is
    an :class:`~repro.codec.Encoded` is spliced verbatim.
    """
    out = bytearray()
    for part in parts:
        if type(part) is Encoded:
            out += part
        else:
            write(out, part, 0)
    return bytes(out)


def hash_bytes(domain: str, *parts: object) -> bytes:
    """SHA-256 under a domain-separation tag."""
    return hashlib.sha256(domain.encode("utf-8") + b"\x00" + encode(*parts)).digest()


def hash_to_int(domain: str, *parts: object, bits: int = 256) -> int:
    """Hash to an integer of up to ``bits`` bits via counter-mode SHA-256.

    Block ``i`` is ``hash_bytes(domain, i, *parts)``; the parts are
    encoded once and only the counter per block.
    """
    needed = (bits + 7) // 8
    prefix = domain.encode("utf-8") + b"\x00"
    body = encode(*parts)
    out = bytearray()
    counter = 0
    while len(out) < needed:
        out += hashlib.sha256(prefix + encode(counter) + body).digest()
        counter += 1
    return int.from_bytes(bytes(out[:needed]), "big") >> (8 * needed - bits)


# Width of every Fiat-Shamir challenge.  A cheating prover of a
# commitment-form ``(a, z)`` proof or signature must hit the one
# challenge its commitment can answer, so soundness is 2^-128 per
# random-oracle query however large q is; the extractor needs two
# challenges ``c != c'`` with ``c - c'`` invertible mod q, true of any
# two distinct 128-bit values once q > 2^128.  The verifier pays an
# exponentiation by ``c`` per key, so every further bit is cost without
# security (batch coefficients are 64 bits: a batched key term is
# <= 192 bits, not |q|).  A constant, not a setting: prover and verifier
# must agree on it, and no deployment has a use for another value.
CHALLENGE_BITS = 128


def _challenge_bound(group: SchnorrGroup) -> int:
    # The 64-bit test group is narrower than a challenge and wraps it.
    return min(group.q, 1 << CHALLENGE_BITS)


def hash_to_challenge(group: SchnorrGroup, domain: str, *parts: object) -> int:
    """A Fiat-Shamir challenge ``1 <= c < min(q, 2^CHALLENGE_BITS)``."""
    value = hash_to_int(domain, *parts, bits=CHALLENGE_BITS)
    return value % (_challenge_bound(group) - 1) + 1


def is_challenge(group: SchnorrGroup, value: int) -> bool:
    """Whether :func:`hash_to_challenge` can have produced ``value`` —
    the range check owed to a challenge that arrives instead of being
    recomputed (a TDH2 ciphertext's ``e``)."""
    return 0 < value < _challenge_bound(group)


def hash_to_exponent(group: SchnorrGroup, domain: str, *parts: object) -> int:
    """Hash into Z_q, near-uniformly and never zero: a full-width mask
    (the DKG's one-time pad over subshares).  Challenges are
    :func:`hash_to_challenge`."""
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
