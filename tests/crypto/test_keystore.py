"""Keystore: dealer output round-trips through JSON files."""

import json
import random

import pytest

from repro.adversary import example1_access_formula, example1_structure
from repro.crypto import deal_system, small_group
from repro.crypto.dealer import CLIENT_BASE
from repro.crypto.keystore import (
    KeystoreError,
    load_client,
    load_party,
    load_public,
    party_from_dict,
    party_to_dict,
    public_from_dict,
    public_to_dict,
    write_deployment,
)


def _roundtrip_and_sign(keys, tmp_path):
    """Write to disk, reload, and exercise every reloaded capability."""
    paths = write_deployment(keys, tmp_path)
    public = load_public(tmp_path / "public.json")
    rng = random.Random(9)

    # Coin: shares from reloaded bundles combine and verify.
    holders = {
        i: load_party(tmp_path / f"server-{i}.json", public).coin
        for i in range(public.n)
    }
    shares = {i: holders[i].share_for("reloaded", rng) for i in (0, 1)}
    assert all(public.coin.verify_share(s) for s in shares.values())
    original_shares = {
        i: keys.private[i].coin.share_for("reloaded", rng) for i in (2, 3)
    }
    assert public.coin.combine("reloaded", shares) == keys.public.coin.combine(
        "reloaded", original_shares
    )

    # Encryption: a ciphertext made with the original public key decrypts
    # with reloaded shares.
    ct = keys.public.encryption.encrypt(b"persisted", b"L", rng)
    dec = {
        i: load_party(tmp_path / f"server-{i}.json", public).decryption
        for i in (0, 2)
    }
    dshares = {i: dec[i].decryption_share(ct, rng) for i in dec}
    assert public.encryption.combine(ct, dshares) == b"persisted"

    # Channel signatures verify across the reload boundary.
    party0 = load_party(tmp_path / "server-0.json", public)
    sig = party0.signing_key.sign("hello", rng)
    assert public.verify_keys[0].verify("hello", sig)
    return paths


def test_threshold_deployment_roundtrip(tmp_path):
    keys = deal_system(4, random.Random(1), t=1, group=small_group())
    paths = _roundtrip_and_sign(keys, tmp_path)
    assert len(paths) == 5  # public + 4 servers


def test_generalized_deployment_roundtrip(tmp_path):
    keys = deal_system(
        9,
        random.Random(2),
        structure=example1_structure(),
        access_formula=example1_access_formula(),
        group=small_group(),
    )
    write_deployment(keys, tmp_path)
    public = load_public(tmp_path / "public.json")
    # The generalized quorum semantics survive the round-trip.
    assert public.quorum.can_be_corrupted({0, 1, 2, 3})
    assert not public.quorum.can_be_corrupted({0, 4, 6})
    assert public.access_scheme.is_qualified({0, 4, 6})
    assert not public.access_scheme.is_qualified({0, 1, 2, 3})


def test_hybrid_deployment_roundtrip(tmp_path):
    keys = deal_system(9, random.Random(3), hybrid=(1, 2), group=small_group())
    write_deployment(keys, tmp_path)
    public = load_public(tmp_path / "public.json")
    assert public.quorum.describe() == keys.public.quorum.describe()


def test_reloaded_system_runs_the_protocols(tmp_path):
    """End-to-end: a service built entirely from reloaded key files."""
    import random as _r

    from repro.core.runtime import ProtocolRuntime
    from repro.net.scheduler import RandomScheduler
    from repro.net.simulator import Network
    from repro.smr import KeyValueStore
    from repro.smr.client import ServiceClient
    from repro.smr.replica import Replica, service_session

    keys = deal_system(4, random.Random(5), t=1, group=small_group())
    write_deployment(keys, tmp_path)
    public = load_public(tmp_path / "public.json")
    net = Network(RandomScheduler(), _r.Random(6))
    for i in range(4):
        bundle = load_party(tmp_path / f"server-{i}.json", public)
        rt = ProtocolRuntime(i, net, public, bundle, seed=6)
        net.attach(i, rt)
        rt.spawn(service_session(), Replica(KeyValueStore()))
    client = ServiceClient(1000, net, public, _r.Random(7))
    net.attach(1000, client)
    net.start()
    nonce = client.submit(("set", "persisted", True))
    net.run(until=lambda: nonce in client.completed, max_steps=600_000)
    assert client.completed[nonce].result == ("ok", 1)


class TestValidation:
    def test_version_check(self):
        keys = deal_system(4, random.Random(7), t=1, group=small_group())
        data = public_to_dict(keys.public)
        data["version"] = 99
        with pytest.raises(KeystoreError):
            public_from_dict(data)

    def test_party_version_check(self):
        keys = deal_system(4, random.Random(8), t=1, group=small_group())
        data = party_to_dict(keys.private[0])
        data["version"] = 0
        with pytest.raises(KeystoreError):
            party_from_dict(data, keys.public)

    def test_rsa_dealt_bundles_rejected(self):
        """The service signs with quorum certificates only: a public
        bundle in the shape a Shoup RSA dealer wrote is refused, not
        half-loaded."""
        keys = deal_system(4, random.Random(9), t=1, group=small_group())
        public = public_to_dict(keys.public)
        public["service_signature"] = {
            "kind": "rsa", "n_parties": 4, "k": 2, "n_modulus": "3233",
            "e": "17", "v": "4", "v_keys": {str(i): "16" for i in range(1, 5)},
        }
        with pytest.raises(KeystoreError, match="quorum certificates only"):
            public_from_dict(public)

    def test_backend_mismatch_detected(self):
        """A party bundle holding a Shoup RSA key share is refused
        against a certificate public bundle."""
        keys = deal_system(4, random.Random(9), t=1, group=small_group())
        party = party_to_dict(keys.private[0])
        party["service_signer"] = {"kind": "rsa", "party": 1, "s": "1234"}
        with pytest.raises(KeystoreError, match="quorum certificates only"):
            party_from_dict(party, keys.public)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "public.json"
        path.write_text("{not json")
        with pytest.raises(KeystoreError):
            load_public(path)

    def test_json_is_pure_text(self, tmp_path):
        keys = deal_system(4, random.Random(10), t=1, group=small_group())
        write_deployment(keys, tmp_path)
        data = json.loads((tmp_path / "public.json").read_text())
        assert data["version"] == 1  # plain JSON, no binary blobs


class TestChannelKeys:
    def test_server_channel_keys_roundtrip(self, tmp_path):
        keys = deal_system(
            4, random.Random(11), t=1, group=small_group(), clients=1
        )
        write_deployment(keys, tmp_path)
        public = load_public(tmp_path / "public.json")
        bundles = {
            i: load_party(tmp_path / f"server-{i}.json", public)
            for i in range(4)
        }
        for i in range(4):
            assert bundles[i].channel_keys == keys.private[i].channel_keys
        # Pairwise agreement across the reload boundary.
        for a in range(4):
            for b in range(4):
                if a != b:
                    key = bundles[a].channel_keys[b]
                    assert bundles[b].channel_keys[a] == key
                    assert len(key) == 32

    def test_client_file_roundtrip(self, tmp_path):
        keys = deal_system(
            4, random.Random(12), t=1, group=small_group(), clients=2
        )
        write_deployment(keys, tmp_path)
        public = load_public(tmp_path / "public.json")
        for client_id in (CLIENT_BASE, CLIENT_BASE + 1):
            loaded, channel_keys = load_client(
                tmp_path / f"client-{client_id}.json"
            )
            assert loaded == client_id
            assert channel_keys == keys.client_channels[client_id]
            # The client shares each server's key for this client id.
            for i in range(4):
                server = load_party(tmp_path / f"server-{i}.json", public)
                assert server.channel_keys[client_id] == channel_keys[i]

    def test_party_file_without_channel_keys_still_loads(self):
        # Key files written before channel keys existed omit the field;
        # loading must not break, just yield an empty keyring.
        keys = deal_system(4, random.Random(13), t=1, group=small_group())
        data = party_to_dict(keys.private[0])
        del data["channel_keys"]
        bundle = party_from_dict(data, keys.public)
        assert bundle.channel_keys == {}

    def test_channel_keys_are_hex_text_in_json(self, tmp_path):
        keys = deal_system(
            4, random.Random(14), t=1, group=small_group(), clients=1
        )
        write_deployment(keys, tmp_path)
        data = json.loads((tmp_path / "server-0.json").read_text())
        assert set(data["channel_keys"]) == {"1", "2", "3", str(CLIENT_BASE)}
        for value in data["channel_keys"].values():
            assert bytes.fromhex(value)  # plain hex strings, 32 bytes
            assert len(value) == 64


class TestAtomicWrites:
    """Crash-safe key file writes: a kill at any instant leaves either
    the complete old file or the complete new one, never a prefix."""

    def test_atomic_write_roundtrip(self, tmp_path):
        from repro.crypto.keystore import atomic_write_text

        target = tmp_path / "public.json"
        atomic_write_text(target, '{"v": 1}')
        assert json.loads(target.read_text()) == {"v": 1}
        atomic_write_text(target, '{"v": 2}')
        assert json.loads(target.read_text()) == {"v": 2}
        # No temp litter after a clean write.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_during_write_preserves_old_file(self, tmp_path, monkeypatch):
        """Simulate SIGKILL mid-write (the chaos engine does this for
        real): fsync raises, the target must still hold the old epoch's
        complete keys and the temp file must be cleaned up."""
        import os as os_module

        from repro.crypto import keystore as ks

        target = tmp_path / "server-0.json"
        ks.atomic_write_text(target, '{"epoch": 0, "complete": true}')

        def exploding_fsync(fd):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os_module, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            ks.atomic_write_text(target, '{"epoch": 1, "truncat')
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"epoch": 0, "complete": True}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_before_rename_preserves_old_file(self, tmp_path, monkeypatch):
        import os as os_module

        from repro.crypto import keystore as ks

        target = tmp_path / "server-1.json"
        ks.atomic_write_text(target, '{"epoch": 0}')

        def exploding_replace(src, dst):
            raise OSError("killed before rename")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError):
            ks.atomic_write_text(target, '{"epoch": 1}')
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"epoch": 0}

    def test_leftover_temp_does_not_confuse_loads(self, tmp_path):
        """A temp file orphaned by a true SIGKILL (no cleanup ran) must
        not shadow the real key files."""
        keys = deal_system(4, random.Random(41), t=1, group=small_group())
        write_deployment(keys, tmp_path)
        (tmp_path / "public.json.12345.tmp").write_text('{"garbage": tru')
        public = load_public(tmp_path / "public.json")
        assert public.n == 4

    def test_write_deployment_is_atomic(self, tmp_path, monkeypatch):
        """write_deployment goes through the atomic path for every file."""
        import os as os_module

        keys = deal_system(4, random.Random(42), t=1, group=small_group())
        write_deployment(keys, tmp_path)
        before = {p.name: p.read_text() for p in tmp_path.glob("*.json")}

        calls = {"n": 0}
        real_replace = os_module.replace

        def counting_replace(src, dst):
            calls["n"] += 1
            return real_replace(src, dst)

        monkeypatch.setattr(os_module, "replace", counting_replace)
        keys2 = deal_system(4, random.Random(43), t=1, group=small_group())
        write_deployment(keys2, tmp_path)
        assert calls["n"] >= len(before)
