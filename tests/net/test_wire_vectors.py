"""The codec's bytes are pinned.  Each vector carries the bytes the
previous grammar wrote for the value (integers as decimal ASCII under
``I``) and the bytes written now (big-endian magnitude under ``j`` /
``k``): journals, checkpoints, signatures and coins all hold these
encodings, so a change that moves a single byte is a change of grammar
— taken once, for every vector at once — and the old bytes must then
never decode to a different value.  Test ids name the value and its
previous bytes and are kept across such a change."""

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


MIXED = frozenset({"x", b"x", 1})

# (value, the parent grammar's bytes, today's bytes)
VECTORS = [
    (None, "4e", "4e"),
    (True, "54", "54"),
    (False, "46", "46"),
    (1, "490000000131", "6a0000000101"),
    (0, "490000000130", "6a00000000"),
    (-1, "49000000022d31", "6b0000000101"),
    (
        2**70,
        "490000001631313830353931363230373137343131333033343234",
        "6a00000009400000000000000000",
    ),
    (
        -(2**70),
        "49000000172d31313830353931363230373137343131333033343234",
        "6b00000009400000000000000000",
    ),
    ("", "5300000000", "5300000000"),
    ("hello wörld", "530000000c68656c6c6f2077c3b6726c64", "530000000c68656c6c6f2077c3b6726c64"),
    (b"", "4200000000", "4200000000"),
    (b"\x00\xff", "420000000200ff", "420000000200ff"),
    # Subclasses of the built-ins go out as the built-in, except
    # ``Encoded``: a part of a hash input, refused at the sender (it
    # went out as bytes, and hashed differently on arrival).
    (Encoded(b"spliced"), "420000000773706c69636564", None),
    (Shout("loud"), "53000000046c6f7564", "53000000046c6f7564"),
    (Pair((1, 2)), "4c00000002490000000131490000000132", "4c000000026a00000001016a0000000102"),
    ((), "4c00000000", "4c00000000"),
    # ``True`` is not ``1`` on the wire, in either order.
    (
        (True, 1, False, 0),
        "4c000000045449000000013146490000000130",
        "4c00000004546a0000000101466a00000000",
    ),
    (
        (1, ("two", (b"three", None))),
        (
            "4c000000024900000001314c00000002530000000374776f4c000000024200000005"
            "74687265654e"
        ),
        (
            "4c000000026a00000001014c00000002530000000374776f4c000000024200000005"
            "74687265654e"
        ),
    ),
    (
        {1: "a", 2: (3, 4)},
        (
            "44000000024900000001315300000001614900000001324c00000002490000000133"
            "490000000134"
        ),
        (
            "44000000026a00000001015300000001616a00000001024c000000026a0000000103"
            "6a0000000104"
        ),
    ),
    # Members sort by their encoding, not by value or insertion.
    (
        {"b": 1, "a": 2, 10: True},
        (
            "44000000034900000002313054530000000161490000000132530000000162490000"
            "000131"
        ),
        (
            "44000000035300000001616a00000001025300000001626a00000001016a00000001"
            "0a54"
        ),
    ),
    (
        frozenset({1, 2, 3, 10}),
        "450000000449000000013149000000013249000000013349000000023130",
        "45000000046a00000001016a00000001026a00000001036a000000010a",
    ),
    (
        MIXED,
        "4500000003420000000178490000000131530000000178",
        "45000000034200000001785300000001786a0000000101",
    ),
    (
        Signature(commit=123456789, response=987654321),
        (
            "43000000095369676e61747572650000000249000000093132333435363738394900"
            "000009393837363534333231"
        ),
        (
            "43000000095369676e6174757265000000026a00000004075bcd156a000000043ade"
            "68b1"
        ),
    ),
    (
        (("service", "tag"), (1, 2, {3: b"x"})),
        (
            "4c000000024c0000000253000000077365727669636553000000037461674c000000"
            "034900000001314900000001324400000001490000000133420000000178"
        ),
        (
            "4c000000024c0000000253000000077365727669636553000000037461674c000000"
            "036a00000001016a000000010244000000016a0000000103420000000178"
        ),
    ),
    (
        (("aba", "s", 3), AbaBval(round=3, value=1)),
        (
            "4c000000024c00000003530000000361626153000000017349000000013343000000"
            "074162614276616c00000002490000000133490000000131"
        ),
        (
            "4c000000024c0000000353000000036162615300000001736a000000010343000000"
            "074162614276616c000000026a00000001036a0000000101"
        ),
    ),
    (
        Request(client=1000, nonce=7, operation=("set", "k", b"v")),
        (
            "430000000752657175657374000000034900000004313030304900000001374c0000"
            "0003530000000373657453000000016b420000000176"
        ),
        (
            "430000000752657175657374000000036a0000000203e86a00000001074c00000003"
            "530000000373657453000000016b420000000176"
        ),
    ),
]


def _id(value: object, parent: str) -> str:
    # ``repr`` of a set of strings follows the hash seed; spell it once.
    name = "frozenset({1, b'x', 'x'}" if value is MIXED else repr(value)[:24]
    return f"{name}-{repr(parent)[:24]}"


@pytest.mark.parametrize(
    "value, parent, pinned", VECTORS, ids=[_id(v, old) for v, old, _ in VECTORS]
)
def test_bytes_are_the_parents(value, parent, pinned):
    if pinned is None:
        for carrier in (value, (1, (value,)), {"k": value}):
            with pytest.raises(wire.WireError, match="not a value"):
                wire.dumps(carrier)
    else:
        encoded = wire.dumps(value)
        assert encoded.hex() == pinned
        # Decoding gives the built-in back, equal to what went in.
        assert wire.loads(encoded) == value
    # The parent's bytes are this value still, or nothing at all.
    try:
        assert wire.loads(bytes.fromhex(parent)) == value
    except wire.WireError:
        assert parent != pinned


def test_one_buffer_many_values_concatenate():
    """The encoder appends to one buffer; a tuple's body is exactly its
    members' encodings laid end to end."""
    members = [value for value, _, pinned in VECTORS if pinned is not None]
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
    with pytest.raises(wire.WireError, match="unknown type"):
        wire.loads(unknown)
    with pytest.raises(wire.WireError, match="cannot encode"):
        wire.dumps([1, 2])
    with pytest.raises(wire.WireError, match="cannot encode"):
        wire.dumps(1.5)
