"""The codec's bytes are pinned: vectors taken at the commit before the
per-type codec replaced the reflective one (``dataclasses.fields`` per
value).  Journals and checkpoints on disk hold these encodings, so a
codec change that moves a single byte needs a wire-version bump."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.binary_agreement import AbaBval
from repro.crypto.hashing import Encoded
from repro.crypto.schnorr import Signature
from repro.net import wire
from repro.smr.state_machine import Request


class Shout(str):
    pass


class Pair(tuple):
    pass


VECTORS = [
    (None, "4e"),
    (True, "54"),
    (False, "46"),
    (1, "490000000131"),
    (0, "490000000130"),
    (-1, "49000000022d31"),
    (2**70, "490000001631313830353931363230373137343131333033343234"),
    (-(2**70), "49000000172d31313830353931363230373137343131333033343234"),
    ("", "5300000000"),
    ("hello wörld", "530000000c68656c6c6f2077c3b6726c64"),
    (b"", "4200000000"),
    (b"\x00\xff", "420000000200ff"),
    # Subclasses of the built-ins go out as the built-in.
    (Encoded(b"spliced"), "420000000773706c69636564"),
    (Shout("loud"), "53000000046c6f7564"),
    (Pair((1, 2)), "4c00000002490000000131490000000132"),
    ((), "4c00000000"),
    # ``True`` is not ``1`` on the wire, in either order.
    ((True, 1, False, 0), "4c000000045449000000013146490000000130"),
    (
        (1, ("two", (b"three", None))),
        "4c000000024900000001314c00000002530000000374776f4c000000024200000005"
        "74687265654e",
    ),
    (
        {1: "a", 2: (3, 4)},
        "44000000024900000001315300000001614900000001324c00000002490000000133"
        "490000000134",
    ),
    # Members sort by their encoding, not by value or insertion.
    (
        {"b": 1, "a": 2, 10: True},
        "440000000349000000023130545300000001614900000001325300000001624900"
        "00000131",
    ),
    (
        frozenset({1, 2, 3, 10}),
        "450000000449000000013149000000013249000000013349000000023130",
    ),
    (frozenset({"x", b"x", 1}), "4500000003420000000178490000000131530000000178"),
    (
        Signature(commit=123456789, response=987654321),
        "43000000095369676e61747572650000000249000000093132333435363738394900"
        "000009393837363534333231",
    ),
    (
        (("service", "tag"), (1, 2, {3: b"x"})),
        "4c000000024c0000000253000000077365727669636553000000037461674c000000"
        "034900000001314900000001324400000001490000000133420000000178",
    ),
    (
        (("aba", "s", 3), AbaBval(round=3, value=1)),
        "4c000000024c0000000353000000036162615300000001734900000001334300000007"
        "4162614276616c00000002490000000133490000000131",
    ),
    (
        Request(client=1000, nonce=7, operation=("set", "k", b"v")),
        "430000000752657175657374000000034900000004313030304900000001374c000000"
        "03530000000373657453000000016b420000000176",
    ),
]


@pytest.mark.parametrize("value, pinned", VECTORS, ids=lambda v: repr(v)[:24])
def test_bytes_are_the_parents(value, pinned):
    encoded = wire.dumps(value)
    assert encoded.hex() == pinned
    # Decoding gives the built-in back, equal to what went in.
    assert wire.loads(encoded) == value


def test_one_buffer_many_values_concatenate():
    """The encoder appends to one buffer; a tuple's body is exactly its
    members' encodings laid end to end."""
    members = [value for value, _ in VECTORS]
    body = b"".join(wire.dumps(value) for value in members)
    assert wire.dumps(tuple(members)) == (
        b"L" + len(members).to_bytes(4, "big") + body
    )


def test_unregistered_dataclass_is_refused_on_both_sides():
    @dataclass(frozen=True)
    class AbaBval:  # the name of a registered class, not the class
        round: int
        value: int

    with pytest.raises(wire.WireError, match="unregistered dataclass"):
        wire.dumps(AbaBval(1, 1))
    with pytest.raises(wire.WireError, match="unregistered dataclass"):
        wire.dumps((1, (AbaBval(1, 1),)))
    unknown = b"C" + (5).to_bytes(4, "big") + b"Ghost" + (0).to_bytes(4, "big")
    with pytest.raises(wire.WireError, match="unknown wire type"):
        wire.loads(unknown)
    with pytest.raises(wire.WireError, match="cannot encode"):
        wire.dumps([1, 2])
    with pytest.raises(wire.WireError, match="cannot encode"):
        wire.dumps(1.5)
