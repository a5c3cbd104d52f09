"""Canonical request encoding: a confidential request's plaintext is
the one codec's output (``repro.codec``), read back under wire policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import codec

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.text(max_size=30),
    st.binary(max_size=30),
)
values = st.recursive(atoms, lambda c: st.lists(c, max_size=4).map(tuple), max_leaves=12)


@given(values)
def test_roundtrip(value):
    assert codec.loads(codec.dumps(value)) == value


def _same_canonical_value(a, b):
    """Equality under the codec's notion of identity: Python's ``==``
    conflates ``False == 0`` and ``True == 1``, but the canonical
    encoding (by design — see ``test_bool_int_distinction``) does not."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            _same_canonical_value(x, y) for x, y in zip(a, b)
        )
    return a == b


@given(values, values)
def test_canonical_encoding(a, b):
    if _same_canonical_value(a, b):
        assert codec.dumps(a) == codec.dumps(b)
    else:
        assert codec.dumps(a) != codec.dumps(b)


def test_bool_int_distinction():
    assert codec.loads(codec.dumps(True)) is True
    assert codec.loads(codec.dumps(1)) == 1
    assert codec.dumps(True) != codec.dumps(1)


def test_unsupported_types_rejected():
    with pytest.raises(codec.CodecError):
        codec.dumps([1, 2])  # lists are not canonical; tuples only
    with pytest.raises(codec.CodecError):
        codec.dumps({1, 2})  # nor mutable sets; frozenset only
    with pytest.raises(codec.CodecError):
        codec.dumps(1.5)


def test_malformed_inputs_rejected():
    for data in (b"", b"Z", b"I\x00\x00\x00\x011", b"j\x00\x00\x00\x02x", b"S\x00\x00\x00\x05ab",
                 b"L\x00\x00\x00\x01", b"B\xff\xff\xff\xff", b"Nx"):
        with pytest.raises(codec.CodecError):
            codec.loads(data)


def test_non_utf8_string_rejected():
    data = b"S" + (2).to_bytes(4, "big") + b"\xff\xfe"
    with pytest.raises(codec.CodecError):
        codec.loads(data)


def test_nested_structure():
    value = ("req", 1000, 7, ("register", b"\x00digest\xff", None, True))
    assert codec.loads(codec.dumps(value)) == value


def test_nesting_beyond_the_bound_is_a_codec_error():
    """1,000 nested tuples are 5 KB a client can put in a ciphertext: the
    reader refuses them at depth 32 instead of riding the interpreter's
    stack into ``RecursionError``."""
    data = b"L\x00\x00\x00\x01" * 1000 + b"N"
    with pytest.raises(codec.CodecError, match="too deeply nested"):
        codec.loads(data)
