"""Random-oracle helpers: unambiguous encoding and domain separation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec import CodecError, register
from repro.crypto.groups import default_group, small_group
from repro.crypto.hashing import (
    Encoded,
    encode,
    hash_bytes,
    hash_to_exponent,
    hash_to_group,
    hash_to_int,
    mgf1,
    xor_bytes,
)
from repro.crypto.schnorr import Signature

# Values the protocols actually hash: nested tuples of primitives.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.text(max_size=20),
    st.binary(max_size=20),
)
values = st.recursive(
    atoms, lambda c: st.tuples(c, c) | st.lists(c, max_size=3).map(tuple), max_leaves=8
)


@given(values, values)
def test_encode_injective_on_distinct_values(a, b):
    # The encoding is type-tagged (encode(True) != encode(1)), and plain
    # == would conflate bool with int, so compare (type, value) pairs.
    def norm(v):
        if isinstance(v, tuple):
            return tuple(norm(x) for x in v)
        return (type(v).__name__, v)

    if norm(a) != norm(b):
        assert encode(a) != encode(b)
    else:
        assert encode(a) == encode(b)


def test_encode_distinguishes_adjacent_strings():
    # The classic concatenation pitfall: ("ab","c") vs ("a","bc").
    assert encode("ab", "c") != encode("a", "bc")
    assert encode(b"ab", b"c") != encode(b"a", b"bc")
    assert encode(12, 3) != encode(1, 23)


def test_encode_distinguishes_types():
    assert encode(1) != encode("1")
    assert encode(b"1") != encode("1")
    assert encode(True) != encode(1)
    assert encode(None) != encode("")


def test_encode_handles_dataclasses_and_dicts():
    sig = Signature(commit=5, response=9)
    assert encode(sig) == encode(Signature(commit=5, response=9))
    assert encode(sig) != encode(Signature(commit=5, response=10))
    assert encode({1: "a", 2: "b"}) == encode({2: "b", 1: "a"})


@dataclasses.dataclass(frozen=True)
class Unregistered:
    x: int


def test_encode_rejects_unknown_types():
    # The codec's type universe, no wider: a list or a set has no
    # canonical form of its own (callers pass tuples and frozensets),
    # and an unregistered dataclass could not be read back.
    for value in (object(), 1.5, [1, 2], {1, 2}, Unregistered(1)):
        with pytest.raises(CodecError):
            encode(value)


def test_domain_separation():
    assert hash_bytes("a", "x") != hash_bytes("b", "x")
    assert hash_to_int("a", "x") != hash_to_int("b", "x")


def test_hash_to_int_respects_bit_bound():
    for bits in (8, 64, 256, 300):
        v = hash_to_int("t", "data", bits=bits)
        assert 0 <= v < (1 << bits)


def test_hash_to_exponent_in_range():
    grp = small_group()
    for i in range(50):
        e = hash_to_exponent(grp, "t", i)
        assert 0 < e < grp.q


def test_hash_to_group_members():
    grp = small_group()
    seen = set()
    for i in range(30):
        h = hash_to_group(grp, "t", i)
        assert grp.is_member(h)
        seen.add(h)
    assert len(seen) == 30


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(ValueError):
        xor_bytes(b"a", b"ab")


def test_mgf1_lengths_and_prefix_freeness():
    short = mgf1(b"seed", 10)
    long = mgf1(b"seed", 100)
    assert len(short) == 10 and len(long) == 100
    assert long.startswith(short)  # counter-mode expansion
    assert mgf1(b"seed2", 10) != short


# -- vectors: the bytes hashed never move -------------------------------------------


@register
@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    label: str


def test_encode_and_hash_vectors_are_pinned():
    """Every signature, challenge and coin in a deployed system depends
    on these exact bytes.  Re-taken once, when hashing took the wire's
    grammar (4-byte lengths and counts, bare ``T``/``F``, sets under
    ``E``) and integers became binary; old -> new in CHANGES.md."""
    assert encode(Point(3, "a"), {"k": (1, None, True)}, frozenset({2, 1}), b"\x00").hex() == (
        "4300000005506f696e74000000026a0000000103530000000161440000000153"
        "000000016b4c000000036a00000001014e5445000000026a00000001016a0000"
        "000102420000000100"
    )
    assert hash_bytes("dom", "a", 1).hex() == (
        "55d2218541d62e1507614da8a4fa029c8d590d5834ba304273c83d0e9cd1693e"
    )
    assert hash_to_int("dom", "a", 1, (2, b"x"), bits=700) == int(
        "2554042009432865026008766818927336990731383569498426361370297994890954"
        "9489750779574595411297538990667044568782027984588023502906881420451612"
        "2199927104126292166805148165655098957617672386734129961870502949815695"
    )
    assert hash_to_exponent(default_group(), "dom", "a", (1, 2)) == int(
        "42875302459533732364676358574736815129766933714249717575100478669608421239163"
    )
    assert mgf1(b"seed", 70).hex() == (
        "7342ce40249716da9015b70628a51b1c0fcba0ec2fb116ce0d0fcea91fbbcca3d741b131"
        "60a34e6f40f1b52ba7fe65ea77a7331a3e99dfc0708dba7aebef6759bd67031890b2"
    )


def test_dataclass_fields_are_read_per_type_not_per_value(monkeypatch):
    calls = []
    real = dataclasses.fields
    monkeypatch.setattr(
        dataclasses, "fields", lambda cls: calls.append(cls) or real(cls)
    )

    @register
    @dataclasses.dataclass(frozen=True)
    class Fresh:
        a: int
        b: tuple

    first = encode(Fresh(1, (2, 3)))
    assert encode(Fresh(1, (2, 3))) == first != encode(Fresh(1, (2, 4)))
    assert [encode(Fresh(i, ())) for i in range(5)]
    assert calls == [Fresh]


# -- encode once ---------------------------------------------------------------------


@given(values, values)
def test_encode_is_concatenative(a, b):
    assert encode(a, b) == encode(a) + encode(b)


@given(values, values)
def test_encoded_part_is_spliced_verbatim(a, b):
    """A pre-encoded statement hashes exactly like the statement."""
    pre = Encoded(encode(b))
    assert encode(a, pre) == encode(a, b)
    # It is a part of a hash input, not a value: inside a container it
    # would travel, and a spliced body cannot be read back.
    with pytest.raises(CodecError, match="not a value"):
        encode((a, pre))
    assert hash_bytes("d", a, pre) == hash_bytes("d", a, b)
    assert hash_to_int("d", a, pre, bits=300) == hash_to_int("d", a, b, bits=300)
    # Plain bytes are data, tagged and length-prefixed as ever.
    assert encode(bytes(pre)) != encode(pre)


def test_hash_to_int_blocks_are_counter_mode_hash_bytes():
    parts = ("a", 1, (2, b"x"))
    blocks = b"".join(hash_bytes("dom", counter, *parts) for counter in range(3))
    assert hash_to_int("dom", *parts, bits=768) == int.from_bytes(blocks, "big")


def test_hashing_imports_nothing_from_the_network_layer():
    """The writer lives below ``crypto/``: hashing a registered value
    needs no registry bootstrap and pulls in nothing of ``repro.net``."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from repro.crypto import hashing\n"
        "from repro.crypto.schnorr import Signature\n"
        "assert hashing.encode(Signature(1, 2))[:1] == b'C'\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.net')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)
