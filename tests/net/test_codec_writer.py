"""The codec's writer against a plain recursive reference writer.

``codec.dumps`` writes ``int``, ``bytes`` and ``str`` members in place,
renders small integers from a table, writes a subclass of a built-in as
that built-in, and checks the nesting bound once per container.  None of that may change a byte or an
error: the reference below is the grammar of docs/PROTOCOLS.md
("Encoding") written the obvious way — one call per value, the bound
checked at every value — and on every generated value both writers must
give the same bytes or the same :class:`~repro.codec.CodecError`.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import codec
from repro.codec import MAX_DEPTH, CodecError, Encoded
from repro.core.binary_agreement import AbaBval, AbaConf
from repro.crypto.schnorr import Signature


def _length(n: int) -> bytes:
    return struct.pack(">I", n)


def reference(value: object, depth: int = 0) -> bytes:
    """The grammar, one value at a time."""
    if depth > MAX_DEPTH:
        raise CodecError("value too deeply nested")
    kind = type(value)
    if value is None:
        return b"N"
    if kind is bool:
        return b"T" if value else b"F"
    if kind is Encoded:
        raise CodecError("Encoded is part of a hash input, not a value")
    if kind in codec.registered_types().values():
        name = kind.__name__.encode("ascii")
        fields = dataclasses.fields(kind)
        body = b"".join(reference(getattr(value, f.name), depth + 1) for f in fields)
        return b"C" + _length(len(name)) + name + _length(len(fields)) + body
    if isinstance(value, int):
        magnitude = abs(value)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        return (b"k" if value < 0 else b"j") + _length(len(body)) + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"S" + _length(len(body)) + body
    if isinstance(value, bytes):
        return b"B" + _length(len(value)) + value
    if isinstance(value, tuple):
        return b"L" + _length(len(value)) + b"".join(reference(v, depth + 1) for v in value)
    if isinstance(value, frozenset):
        members = sorted(reference(v, depth + 1) for v in value)
        return b"E" + _length(len(members)) + b"".join(members)
    if isinstance(value, dict):
        members = sorted(
            reference(k, depth + 1) + reference(v, depth + 1) for k, v in value.items()
        )
        return b"D" + _length(len(members)) + b"".join(members)
    if dataclasses.is_dataclass(value):
        raise CodecError(f"unregistered dataclass {kind.__name__}")
    raise CodecError(f"cannot encode {kind.__name__}")


class Shout(str):
    pass


class Count(int):
    pass


class Pair(tuple):
    pass


@dataclasses.dataclass(frozen=True)
class Unregistered:
    x: int


def _outcome(write, value):
    try:
        return write(value)
    except CodecError as exc:
        return ("refused", str(exc))


def _same_as_reference(value) -> None:
    assert _outcome(codec.dumps, value) == _outcome(reference, value)


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-300, 300),  # across the small-integer table's edge
    st.integers(-(2**300), 2**300),
    st.sampled_from(["", "cbc", "mvba", "x" * 24, "y" * 25, "wörld", "🙂"]),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(Shout, st.text(max_size=5)),
    st.builds(Count, st.integers(-5, 500)),
    st.builds(Encoded, st.binary(max_size=4)),
    st.builds(Unregistered, st.integers(0, 3)),
    st.sampled_from([1.5, [1], {2}]),
)


def _containers(children):
    hashable = st.one_of(st.integers(-3, 300), st.text(max_size=3), st.booleans(), st.none())
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(Pair),
        st.frozensets(hashable, max_size=4),
        st.dictionaries(hashable, children, max_size=3),
        st.builds(Signature, children, children),
        st.builds(AbaBval, children, children),
        st.builds(AbaConf, children, children),
    )


values = st.recursive(leaves, _containers, max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_the_reference(value):
    _same_as_reference(value)


def test_every_leaf_length_matches_the_reference():
    """Integers and strings of every length up to 300 bytes, across the
    edge of the small-integer table, alone and inside a container."""
    for size in range(301):
        top = 2 ** (8 * size)
        for leaf in (size, -size, top - 1, top, -top, b"\x01" * size, "s" * size):
            _same_as_reference(leaf)
            _same_as_reference((leaf, Signature(leaf, size)))


def _nested(leaf, levels: int, wrap) -> object:
    value = leaf
    for _ in range(levels):
        value = wrap(value)
    return value


WRAPS = {
    "tuple": lambda v: (v,),
    "pair": lambda v: (0, v),
    "frozenset": lambda v: frozenset({v}),
    "dict-value": lambda v: {0: v},
    "dataclass": lambda v: Signature(v, 0),
}


@pytest.mark.parametrize("leaf", [7, 2**200, b"x", "s", None, True], ids=repr)
@pytest.mark.parametrize("kind", sorted(WRAPS))
def test_a_leaf_at_the_bound_is_written_and_one_past_it_is_refused(kind, leaf):
    wrap = WRAPS[kind]
    at_bound = _nested(leaf, MAX_DEPTH, wrap)
    assert codec.dumps(at_bound) == reference(at_bound)
    assert codec.loads(codec.dumps(at_bound)) == at_bound
    with pytest.raises(CodecError, match="too deeply nested"):
        codec.dumps(wrap(at_bound))
    _same_as_reference(wrap(at_bound))


def test_an_empty_container_at_the_bound_is_written():
    for empty in ((), frozenset(), {}):
        value = _nested(empty, MAX_DEPTH, lambda v: (v,))
        assert codec.dumps(value) == reference(value)
        _same_as_reference((value,))


@settings(max_examples=100, deadline=None)
@given(st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2), st.sampled_from(sorted(WRAPS)), leaves)
def test_depth_near_the_bound_matches_the_reference(levels, kind, leaf):
    assume(kind != "frozenset" or not isinstance(leaf, (list, set)))  # unhashable
    _same_as_reference(_nested(leaf, levels, WRAPS[kind]))


def test_write_below_the_top_counts_the_depth_given():
    out = bytearray()
    codec.write(out, 5, MAX_DEPTH)
    assert bytes(out) == reference(5)
    with pytest.raises(CodecError, match="too deeply nested"):
        codec.write(bytearray(), 5, MAX_DEPTH + 1)
    with pytest.raises(CodecError, match="too deeply nested"):
        codec.write(bytearray(), (5,), MAX_DEPTH)
