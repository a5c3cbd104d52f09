"""Request/Reply encoding and the key-value state machine."""

from repro.smr.state_machine import KeyValueStore, Request


def _req(op, client=1000, nonce=1):
    return Request(client=client, nonce=nonce, operation=op)


class TestRequestCodec:
    def test_roundtrip(self):
        r = _req(("set", "k", "v"))
        assert Request.decode(r.encode()) == r

    def test_decode_rejects_malformed(self):
        assert Request.decode("nope") is None
        assert Request.decode(("req", 1, 2)) is None
        assert Request.decode(("req", "x", 2, ())) is None
        assert Request.decode(("req", 1, 2, "not-a-tuple")) is None
        assert Request.decode(("other", 1, 2, ())) is None
        # ``True == 1`` yet encodes apart: no client 1, nonce 1 spelled True.
        assert Request.decode(("req", True, 2, ())) is None
        assert Request.decode(("req", 1, True, ())) is None


class TestKeyValueStore:
    def test_set_then_get(self):
        kv = KeyValueStore()
        assert kv.apply(_req(("set", "a", 1))) == ("ok", 1)
        assert kv.apply(_req(("get", "a"))) == ("value", 1)

    def test_get_missing(self):
        kv = KeyValueStore()
        assert kv.apply(_req(("get", "nope"))) == ("value", None)

    def test_version_increments_only_on_writes(self):
        kv = KeyValueStore()
        kv.apply(_req(("set", "a", 1)))
        kv.apply(_req(("get", "a")))
        kv.apply(_req(("set", "a", 2)))
        assert kv.version == 2
        assert kv.apply(_req(("get", "a"))) == ("value", 2)

    def test_unknown_operation(self):
        kv = KeyValueStore()
        assert kv.apply(_req(("frobnicate",)))[0] == "error"
        assert kv.apply(_req(("set", 5, 1)))[0] == "error"  # non-str key

    def test_snapshot_reflects_state(self):
        a, b = KeyValueStore(), KeyValueStore()
        for kv in (a, b):
            kv.apply(_req(("set", "x", 1)))
            kv.apply(_req(("set", "y", 2)))
        assert a.snapshot() == b.snapshot()
        b.apply(_req(("set", "y", 3)))
        assert a.snapshot() != b.snapshot()

    def test_determinism(self):
        """Same request sequence -> same results and state, always."""
        ops = [("set", "a", 1), ("get", "a"), ("set", "b", 2), ("get", "z")]
        runs = []
        for _ in range(2):
            kv = KeyValueStore()
            runs.append([kv.apply(_req(op, nonce=i)) for i, op in enumerate(ops)])
        assert runs[0] == runs[1]
