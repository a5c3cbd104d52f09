"""Wire format: roundtrips, safety, and full protocol runs over bytes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ctx_for, make_network

from repro.core.atomic_broadcast import AtomicBroadcast, abc_session
from repro.core.runtime import ProtocolRuntime
from repro.crypto.schnorr import Signature, keygen
from repro.crypto.groups import small_group
from repro.net import wire
from repro.net.scheduler import RandomScheduler
from repro.net.simulator import Network

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
    ),
    max_leaves=10,
)


@given(values)
@settings(max_examples=80)
def test_primitive_roundtrip(value):
    assert wire.loads(wire.dumps(value)) == value


def test_dataclass_roundtrip():
    sig = Signature(commit=5, response=9)
    assert wire.loads(wire.dumps(sig)) == sig


def test_registry_covers_every_message_kind():
    types = wire.registered_types()
    for name in ("RbcSend", "AbaBval", "MvbaValue", "AbcProposal",
                 "ScDecryptionShare", "PrePrepare", "SubmitRequest",
                 "QuorumCertificate", "Ciphertext", "CoinShare"):
        assert name in types, name


def test_unregistered_dataclass_rejected():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Sneaky:
        x: int

    with pytest.raises(wire.WireError):
        wire.dumps(Sneaky(1))


def test_unknown_type_name_rejected():
    data = b"C" + (6).to_bytes(4, "big") + b"Sneaky" + (1).to_bytes(4, "big") + b"N"
    with pytest.raises(wire.WireError):
        wire.loads(data)


def test_malformed_inputs_rejected():
    for data in (b"", b"Z", b"I\x00\x00\x00\x02x", b"L\x00\x00\x00\x05N",
                 b"B\xff\xff\xff\xff", b"S\x00\x00\x00\x02\xff\xfe"):
        with pytest.raises(wire.WireError):
            wire.loads(data)


def test_field_count_mismatch_rejected():
    good = wire.dumps(Signature(commit=1, response=2))
    # Corrupt the field count (bytes after the class name).
    name_len = int.from_bytes(good[1:5], "big")
    offset = 5 + name_len
    bad = good[:offset] + (9).to_bytes(4, "big") + good[offset + 4 :]
    with pytest.raises(wire.WireError):
        wire.loads(bad)


def test_depth_bound_enforced():
    value = ()
    for _ in range(40):
        value = (value,)
    with pytest.raises(wire.WireError):
        wire.dumps(value)


def test_canonical_dict_and_set_ordering():
    a = wire.dumps({1: "a", 2: "b", 3: "c"})
    b = wire.dumps({3: "c", 1: "a", 2: "b"})
    assert a == b
    assert wire.dumps(frozenset({5, 1, 3})) == wire.dumps(frozenset({3, 5, 1}))


def test_every_live_protocol_message_survives_the_wire(keys_4_1):
    """Run agreement + ABC, capture every real payload sent, and check
    each one roundtrips through the wire format byte-identically."""
    from repro.core.binary_agreement import BinaryAgreement, aba_session

    net, rts = make_network(keys_4_1, RandomScheduler(), seed=1)
    session = aba_session("wire")
    for p, rt in rts.items():
        rt.spawn(session, BinaryAgreement(p % 2))
    captured = []
    original_send = net.send

    def capturing_send(sender, recipient, payload):
        captured.append(payload)
        original_send(sender, recipient, payload)

    net.send = capturing_send
    net.run(
        until=lambda: all(rt.result(session) is not None for rt in rts.values()),
        max_steps=400_000,
    )
    assert captured
    for payload in captured:
        assert wire.loads(wire.dumps(payload)) == payload


class SerializingNetwork(Network):
    """Every payload crosses the wire as real bytes."""

    def send(self, sender, recipient, payload):
        data = wire.dumps(payload)
        super().send(sender, recipient, wire.loads(data))


def test_full_abc_over_serialized_network(keys_4_1):
    """The whole atomic broadcast stack works when every message is
    serialized and re-parsed — no hidden object-identity dependence."""
    net = SerializingNetwork(RandomScheduler(), random.Random(7))
    rts = {}
    for i in range(4):
        rt = ProtocolRuntime(i, net, keys_4_1.public, keys_4_1.private[i], seed=7)
        net.attach(i, rt)
        rts[i] = rt
    session = abc_session("serialized")
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(session, AtomicBroadcast(
            on_deliver=lambda m, r, pp=p: logs[pp].append(m)))
    net.start()
    for p in rts:
        rts[p].instances[session].submit(ctx_for(rts[p], session), ("req", p))
    net.run(until=lambda: all(len(logs[p]) >= 4 for p in rts), max_steps=900_000)
    assert all(logs[p] == logs[0] for p in rts)


def test_smr_over_serialized_network():
    """End-to-end service replication over wire bytes, including the
    client's encrypted confidential submissions."""
    from repro.smr import KeyValueStore, build_service

    dep = build_service(4, KeyValueStore, t=1, causal=True, seed=9)
    dep.network.__class__ = SerializingNetwork  # swap in the codec path
    client = dep.new_client()
    dep.network.start()
    n1 = client.submit_confidential(("set", "k", 42))
    dep.run_until_complete(client, [n1], max_steps=900_000)
    n2 = client.submit_confidential(("get", "k"))
    results = dep.run_until_complete(client, [n2], max_steps=900_000)
    assert results[n2].result == ("value", 42)


def test_wire_imports_every_module_that_registers_a_type():
    """Types register where they are defined; the wire's part is to have
    imported every such module before it reads a byte, so a replica
    decodes with the whole type universe whatever it imported itself.
    A fresh interpreter: first the wire alone, then every module."""
    import subprocess
    import sys

    script = (
        "import importlib, pkgutil, repro\n"
        "from repro import codec\n"
        "from repro.net import wire\n"
        "known = set(wire.registered_types())\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "late = set(codec.registered_types()) - known\n"
        "assert known and not late, late\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)
