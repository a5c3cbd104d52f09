"""The trusted dealer: completeness and admissibility checks."""

import dataclasses
import hashlib
import json
import pathlib
import random
import re
import typing

import pytest

import repro
from repro.adversary import (
    And,
    Leaf,
    example1_access_formula,
    example1_structure,
    majority,
    threshold_structure,
)
from repro.crypto import deal_system, small_group
from repro.crypto.dealer import CLIENT_BASE, PublicKeys, deal_channel_keys
from repro.crypto.keystore import party_to_dict, public_to_dict
from repro.crypto.threshold_sig import QuorumCertScheme, ShoupRsaScheme


def test_bundles_complete(keys_4_1):
    public = keys_4_1.public
    assert public.n == 4
    assert public.threshold() == 1
    assert set(keys_4_1.private) == {0, 1, 2, 3}
    for i in range(4):
        pk = keys_4_1.private[i]
        assert pk.party == i
        assert pk.coin.subshares  # everyone holds coin material
        assert pk.decryption.subshares
    assert set(public.verify_keys) == {0, 1, 2, 3}


def test_q3_violation_rejected():
    with pytest.raises(ValueError):
        deal_system(3, random.Random(1), t=1, group=small_group())
    with pytest.raises(ValueError):
        deal_system(6, random.Random(2), t=2, group=small_group())


def test_q3_violation_allowed_when_disabled():
    keys = deal_system(
        3, random.Random(3), t=1, group=small_group(), require_q3=False
    )
    assert keys.public.n == 3


def test_generalized_structure_needs_formula():
    with pytest.raises(ValueError):
        deal_system(
            9, random.Random(4), structure=example1_structure(), group=small_group()
        )


def test_incompatible_formula_rejected():
    # An AND over two class-a servers is reconstructible by a corruptible
    # coalition — must be refused.
    bad = And(Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        deal_system(
            9,
            random.Random(5),
            structure=example1_structure(),
            access_formula=bad,
            group=small_group(),
        )


def test_threshold_with_wrong_majority_formula_rejected():
    # t=1 but a 2-of-4 access formula lets a single corrupted pair...
    # actually a t-sized set must never be qualified: 2-of-4 with t=1 is
    # fine; 1-of-4 is not.
    with pytest.raises(ValueError):
        deal_system(
            4,
            random.Random(6),
            t=1,
            access_formula=majority(list(range(4)), 1),
            group=small_group(),
        )


def test_example1_system_deals(keys_example1):
    public = keys_example1.public
    assert public.n == 9
    assert public.threshold() is None
    assert public.quorum.can_be_corrupted({0, 1, 2, 3})
    assert public.quorum.can_be_corrupted({0, 4})  # a pair, not both class a
    assert not public.quorum.can_be_corrupted({0, 4, 6})


def test_certs_backend_default(keys_4_1):
    assert isinstance(keys_4_1.public.service_signature, QuorumCertScheme)


def test_every_certificate_scheme_has_a_reader():
    """A certificate scheme no protocol signs under is key material that
    costs dealing, tests and reading and serves nothing: every field of
    ``PublicKeys`` that may hold a ``QuorumCertScheme`` is read by some
    module other than the dealer that assembles it."""
    hints = typing.get_type_hints(PublicKeys)
    schemes = [
        f.name for f in dataclasses.fields(PublicKeys)
        if QuorumCertScheme in (hints[f.name], *typing.get_args(hints[f.name]))
    ]
    assert {"cert_quorum", "service_signature"} <= set(schemes)
    package = pathlib.Path(repro.__file__).parent
    sources = [
        path.read_text() for path in package.rglob("*.py")
        if path != package / "crypto" / "dealer.py"
    ]
    unread = [
        name for name in schemes
        if not any(re.search(rf"\.{name}\b", text) for text in sources)
    ]
    assert unread == []


def test_rsa_backend(keys_4_1_rsa):
    public = keys_4_1_rsa.public
    assert isinstance(public.service_signature, ShoupRsaScheme)
    assert public.service_signature.k == 2  # t + 1
    rng = random.Random(7)
    shares = {}
    for i in (0, 2):
        holder = keys_4_1_rsa.private[i].service_signer
        shares[holder.party] = holder.sign_share("answer", rng)
    sig = public.service_signature.combine("answer", shares)
    assert public.service_signature.verify("answer", sig)


def test_rsa_backend_requires_threshold():
    with pytest.raises(ValueError):
        deal_system(
            9,
            random.Random(8),
            structure=example1_structure(),
            access_formula=example1_access_formula(),
            group=small_group(),
            signature_backend="rsa",
        )


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        deal_system(
            4, random.Random(9), t=1, group=small_group(), signature_backend="pq"
        )


def test_structure_mismatched_n_rejected():
    with pytest.raises(ValueError):
        deal_system(
            8,
            random.Random(10),
            structure=threshold_structure(9, 2),
            access_formula=majority(list(range(9)), 3),
            group=small_group(),
        )


def test_dealing_is_deterministic_given_seed():
    a = deal_system(4, random.Random(99), t=1, group=small_group())
    b = deal_system(4, random.Random(99), t=1, group=small_group())
    assert a.public.encryption.h == b.public.encryption.h
    assert a.private[2].signing_key.x == b.private[2].signing_key.x


def test_channel_keyring_pairwise_and_unique():
    keyring = deal_channel_keys([0, 1, 2, CLIENT_BASE], random.Random(17))
    parties = [0, 1, 2, CLIENT_BASE]
    for a in parties:
        assert set(keyring[a]) == set(parties) - {a}  # no self-channel
        for b in keyring[a]:
            assert keyring[a][b] == keyring[b][a]
            assert len(keyring[a][b]) == 32
    # Every unordered pair gets a distinct key.
    all_keys = {keyring[a][b] for a in parties for b in keyring[a]}
    assert len(all_keys) == len(parties) * (len(parties) - 1) // 2


def test_deal_system_provisions_client_channels():
    keys = deal_system(
        4, random.Random(21), t=1, group=small_group(), clients=2
    )
    assert set(keys.client_channels) == {CLIENT_BASE, CLIENT_BASE + 1}
    for client, channels in keys.client_channels.items():
        # A client talks to servers (and other dealt clients), and each
        # server's bundle holds the matching half of the pair key.
        for i in range(4):
            assert channels[i] == keys.private[i].channel_keys[client]


def test_no_clients_means_no_client_channels(keys_4_1):
    assert keys_4_1.client_channels == {}
    # Servers still get pairwise keys among themselves.
    for i in range(4):
        assert set(keys_4_1.private[i].channel_keys) == set(range(4)) - {i}


@pytest.mark.parametrize(
    "backend, pinned",
    [
        ({}, "062e8b418f07a35656d5d12147a915afceb4ae9b934d52c33fcead48f6f2cf4a"),
        (
            {"signature_backend": "rsa"},
            "696d5751cb0c011d648fe92973632ee539e28913e113ebe3f63b3b8b24f1a759",
        ),
    ],
    ids=["certs", "rsa"],
)
def test_dealt_system_is_pinned(backend, pinned):
    """The dealer draws from its rng in a fixed order and the keystore
    writes what it dealt: the same seed gives these bytes, taken before
    the bundle assembler existed (PR 18's parent).  A change here re-keys
    every seeded deployment, test and benchmark."""
    keys = deal_system(4, random.Random(2001), t=1, clients=1, **backend)
    document = {
        "public": public_to_dict(keys.public),
        "parties": [party_to_dict(keys.private[i]) for i in sorted(keys.private)],
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == pinned
