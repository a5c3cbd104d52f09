"""Random-oracle helpers: unambiguous encoding and domain separation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
values = st.recursive(atoms, lambda c: st.tuples(c, c) | st.lists(c, max_size=3), max_leaves=8)


@given(values, values)
def test_encode_injective_on_distinct_values(a, b):
    # Lists and tuples encode identically by design; normalize first.
    # The encoding is type-tagged (encode(True) != encode(1)), and plain
    # == would conflate bool with int, so compare (type, value) pairs.
    def norm(v):
        if isinstance(v, (list, tuple)):
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


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode(object())


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


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    label: str


def test_encode_and_hash_vectors_are_pinned():
    """Taken at the commit before ``encode`` cached field names and
    ``hash_to_int`` encoded its parts once: every signature, challenge
    and coin in a deployed system depends on these exact bytes."""
    assert encode(Point(3, "a"), {"k": [1, None, True]}, frozenset({2, 1}), b"\x00").hex() == (
        "43000000000000002b530000000000000005506f696e744c0000000000000014"
        "4900000000000000013353000000000000000161440000000000000030530000"
        "0000000000016b4c000000000000001d490000000000000001314e0000000000"
        "0000005400000000000000010146000000000000001449000000000000000131"
        "4900000000000000013242000000000000000100"
    )
    assert hash_bytes("dom", "a", 1).hex() == (
        "8ac081cecc029fc89cf7b57ad2cfafad8993a92aa64f802a61e38ed1a59f681c"
    )
    assert hash_to_int("dom", "a", 1, (2, b"x"), bits=700) == int(
        "5105114392733769025971431920040097351988748117514755891269856203066761"
        "3561681000497996787359658339447008801980541621586038467547597186021250"
        "88159396260345749946802566647524068292662056717103757255263479437408476"
    )
    assert hash_to_exponent(default_group(), "dom", "a", [1, 2]) == int(
        "26949822963626031410915804102114173205692318145916197604942570994664322830313"
    )
    assert mgf1(b"seed", 70).hex() == (
        "15532d2c15c8fac2b793467a8e4fac22eb2d6a24a3be454e269de3692b6fbdf7f4453f58"
        "91997aee2e1fc527c9fbc9e17d81885aa154691cf8ccf2ce912fba9c5efc5838211d"
    )


def test_dataclass_fields_are_read_per_type_not_per_value(monkeypatch):
    calls = []
    real = dataclasses.fields
    monkeypatch.setattr(
        dataclasses, "fields", lambda cls: calls.append(cls) or real(cls)
    )

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
    assert encode((a, pre)) == encode((a, b))  # also inside a container
    assert hash_bytes("d", a, pre) == hash_bytes("d", a, b)
    assert hash_to_int("d", a, pre, bits=300) == hash_to_int("d", a, b, bits=300)
    # Plain bytes are data, tagged and length-prefixed as ever.
    assert encode(bytes(pre)) != encode(pre)


def test_hash_to_int_blocks_are_counter_mode_hash_bytes():
    parts = ("a", 1, (2, b"x"))
    blocks = b"".join(hash_bytes("dom", counter, *parts) for counter in range(3))
    assert hash_to_int("dom", *parts, bits=768) == int.from_bytes(blocks, "big")
