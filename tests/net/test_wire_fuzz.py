"""Fuzz / property tests: ``wire.loads`` never crashes on attacker bytes.

The transport feeds every frame body it receives straight into the
codec, so the codec's contract under malice is load-bearing: any byte
string must either decode cleanly or raise :class:`wire.WireError` —
never an ``IndexError``, ``MemoryError``, ``RecursionError``, or any
other exception an adversary could turn into a crash — and what does
decode is the *only* spelling of its value: ``dumps(loads(x)) == x``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashing
from repro.crypto.schnorr import Signature
from repro.net import wire

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.text(max_size=20),
    st.binary(max_size=20),
)
values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.integers(0, 9), children, max_size=3),
        st.frozensets(st.integers(0, 50), max_size=4),
    ),
    max_leaves=12,
)

# A fixed corpus of valid frames covering every tag the codec emits.
_CORPUS_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    2**70,
    -(2**70),
    "",
    "hello wörld",
    b"",
    b"\x00\xff" * 10,
    (),
    (1, ("two", (b"three", None))),
    {1: "a", 2: (3, 4)},
    frozenset({1, 2, 3}),
    Signature(commit=123456789, response=987654321),
    (("service", "tag"), (1, 2, {3: b"x"})),
]


def _corpus() -> list[bytes]:
    return [wire.dumps(value) for value in _CORPUS_VALUES]


def _assert_loads_is_total(data: bytes) -> None:
    """The only acceptable failure mode is WireError, and the only
    accepted bytes are the ones ``dumps`` writes for the value."""
    try:
        value = wire.loads(data)
    except wire.WireError:
        return
    assert wire.dumps(value) == data


@given(values)
@settings(max_examples=100)
def test_random_values_roundtrip(value):
    assert wire.loads(wire.dumps(value)) == value


@given(values)
@settings(max_examples=100)
def test_hashing_encodes_a_value_as_the_wire_does(value):
    """One grammar: what is signed is what is sent."""
    assert hashing.encode(value) == wire.dumps(value)
    assert hashing.encode(value, value) == 2 * wire.dumps(value)


def test_hashing_and_wire_agree_on_every_corpus_value():
    for value in _CORPUS_VALUES:
        assert hashing.encode(value) == wire.dumps(value)


def _int(tag: bytes, body: bytes) -> bytes:
    return tag + len(body).to_bytes(4, "big") + body


def test_integer_boundaries_roundtrip_in_minimal_form():
    cases = [0, 1, -1]
    for k in (7, 8, 9, 63, 64, 255, 256, 1535, 1536):
        cases += [2**k, -(2**k), 2**k - 1, -(2**k - 1)]
    for value in cases:
        encoded = wire.dumps(value)
        magnitude = abs(value).to_bytes((abs(value).bit_length() + 7) // 8, "big")
        assert encoded == _int(b"k" if value < 0 else b"j", magnitude)
        decoded = wire.loads(encoded)
        assert decoded == value and type(decoded) is int
    assert wire.dumps(0) == b"j\x00\x00\x00\x00"


@pytest.mark.parametrize(
    "data",
    [
        _int(b"j", b"\x00"),  # zero has no magnitude bytes
        _int(b"j", b"\x00\x07"),  # leading zero byte
        _int(b"k", b"\x00\x07"),
        _int(b"k", b""),  # negative zero
        _int(b"k", b"\x00"),
        # The previous grammar's decimal ASCII, and the spellings of 7,
        # 10 and 0 its reader also took:
        _int(b"I", b"7"),
        _int(b"I", b"007"),
        _int(b"I", b"+7"),
        _int(b"I", b" 7 "),
        _int(b"I", b"1_0"),
        _int(b"I", b"-0"),
    ],
)
def test_an_integer_has_one_spelling(data):
    with pytest.raises(wire.WireError):
        wire.loads(data)


def test_sets_and_dicts_have_one_spelling():
    one, two = wire.dumps(1), wire.dumps(2)
    count = (2).to_bytes(4, "big")
    assert wire.loads(b"E" + count + one + two) == frozenset({1, 2})
    for members in (two + one, one + one):  # unsorted, repeated
        with pytest.raises(wire.WireError):
            wire.loads(b"E" + count + members)
    # ``True`` and ``1`` are two encodings of one Python key.
    with pytest.raises(wire.WireError, match="duplicate member"):
        wire.loads(b"E" + count + b"T" + one)
    none = wire.dumps(None)
    assert wire.loads(b"D" + count + one + none + two + none) == {1: None, 2: None}
    for members in (two + none + one + none, one + none + one + two):
        with pytest.raises(wire.WireError):
            wire.loads(b"D" + count + members)


def test_a_20000_bit_integer_crosses_the_wire_and_the_hash():
    """Decimal rendering stopped at the interpreter's 4,300-digit limit
    with a bare ``ValueError`` the transport does not catch."""
    for value in (2**20000 - 1, -(2**19999) - 12345):
        encoded = wire.dumps(value)
        assert len(encoded) == 5 + 2500
        assert wire.loads(encoded) == value
        assert hashing.encode(value) == encoded
        assert len(hashing.hash_bytes("big", value)) == 32


@given(st.binary(max_size=200))
@settings(max_examples=200)
def test_arbitrary_bytes_never_crash(data):
    _assert_loads_is_total(data)


def test_mutated_valid_frames_never_crash():
    """Randomly flip, insert, and delete bytes in valid encodings."""
    rng = random.Random(0xC0DEC)
    corpus = _corpus()
    for _ in range(3000):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 4)):
            mutation = rng.randrange(3)
            if mutation == 0 and data:
                data[rng.randrange(len(data))] = rng.randrange(256)
            elif mutation == 1 and data:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        _assert_loads_is_total(bytes(data))


def test_every_truncation_of_valid_frames_never_crashes():
    for encoded in _corpus():
        for cut in range(len(encoded)):
            _assert_loads_is_total(encoded[:cut])


def test_spliced_frames_never_crash():
    """Concatenations and cross-splices of valid frames."""
    rng = random.Random(0x5EED)
    corpus = _corpus()
    for _ in range(1000):
        a, b = rng.choice(corpus), rng.choice(corpus)
        cut_a, cut_b = rng.randrange(len(a) + 1), rng.randrange(len(b) + 1)
        _assert_loads_is_total(a[:cut_a] + b[cut_b:])


def test_length_field_lies_never_crash():
    """Inflate or deflate internal length fields (any 4-byte window)."""
    rng = random.Random(0xF1E1D)
    corpus = [c for c in _corpus() if len(c) >= 5]
    for _ in range(1500):
        data = bytearray(rng.choice(corpus))
        offset = rng.randrange(len(data) - 3)
        lie = rng.choice([0, 1, 2**16, 2**31 - 1, 2**32 - 1])
        data[offset : offset + 4] = lie.to_bytes(4, "big")
        _assert_loads_is_total(bytes(data))
