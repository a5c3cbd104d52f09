"""Protocol runtime: session routing, buffering, outputs."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
import repro.core
from repro.core.protocol import Context, Protocol
from repro.core.runtime import ProtocolRuntime
from repro.net import wire
from repro.net.scheduler import FifoScheduler
from repro.net.simulator import Network

import random


class Echo(Protocol):
    """Outputs the first message it receives; records everything."""

    def __init__(self):
        self.log = []
        self.started = False

    def on_start(self, ctx):
        self.started = True

    def on_message(self, ctx, sender, message):
        self.log.append((sender, message))
        ctx.output(message)


@pytest.fixture()
def rig(keys_4_1):
    net = Network(FifoScheduler(), random.Random(0))
    runtimes = {}
    for i in range(4):
        rt = ProtocolRuntime(i, net, keys_4_1.public, keys_4_1.private[i], seed=1)
        net.attach(i, rt)
        runtimes[i] = rt
    return net, runtimes


def test_routing_by_session(rig):
    net, rts = rig
    a = rts[1].spawn(("s", "a"), Echo())
    b = rts[1].spawn(("s", "b"), Echo())
    net.send(0, 1, (("s", "a"), "for-a"))
    net.send(0, 1, (("s", "b"), "for-b"))
    net.run()
    assert a.log == [(0, "for-a")]
    assert b.log == [(0, "for-b")]


def test_spawn_is_idempotent(rig):
    _, rts = rig
    first = rts[0].spawn(("s",), Echo())
    second = rts[0].spawn(("s",), Echo())
    assert first is second
    assert first.started


def test_buffering_before_spawn(rig):
    net, rts = rig
    net.send(0, 1, (("late",), "early-bird"))
    net.run()
    inst = rts[1].spawn(("late",), Echo())
    assert inst.log == [(0, "early-bird")]  # replayed on spawn


def test_output_callbacks_and_results(rig):
    net, rts = rig
    seen = []
    rts[1].spawn(("s",), Echo(), on_output=seen.append)
    net.send(0, 1, (("s",), "value"))
    net.run()
    assert seen == ["value"]
    assert rts[1].result(("s",)) == "value"


def test_first_output_wins(rig):
    net, rts = rig
    inst = rts[1].spawn(("s",), Echo())
    net.send(0, 1, (("s",), "first"))
    net.send(2, 1, (("s",), "second"))
    net.run()
    assert rts[1].result(("s",)) == "first"
    assert len(inst.log) == 2  # messages still delivered


def test_late_subscriber_gets_existing_output(rig):
    net, rts = rig
    rts[1].spawn(("s",), Echo())
    net.send(0, 1, (("s",), "v"))
    net.run()
    seen = []
    rts[1].subscribe(("s",), seen.append)
    assert seen == ["v"]


def test_junk_payloads_ignored(rig):
    net, rts = rig
    inst = rts[1].spawn(("s",), Echo())
    net.send(0, 1, "not-a-tuple")
    net.send(0, 1, (1, 2, 3))
    net.send(0, 1, ((), "empty-session"))
    net.send(0, 1, ("nontuple-session", "x"))
    net.run()
    assert inst.log == []


def test_buffer_limit_bounds_memory(rig):
    net, rts = rig
    from repro.core import runtime as rt_mod

    for k in range(rt_mod._BUFFER_LIMIT + 50):
        rts[1].on_message(0, (("flood",), k))
    assert len(rts[1]._buffered[("flood",)]) == rt_mod._BUFFER_LIMIT


def test_an_unhashable_session_id_is_discarded(rig):
    """Any peer can send it (the wire carries a dict); it names no
    session, and used to raise inside the runtime."""
    _, rts = rig
    payload = ((("x", {1: 2}),), "junk")
    assert wire.loads(wire.dumps(payload)) == payload
    rts[0].on_message(1, payload)
    assert rts[0]._buffered == {}


class Gate(Echo):
    """Admits traffic for its unheld sub-sessions while ``open``."""

    def __init__(self, open_):
        super().__init__()
        self.open = open_

    def admits(self, ctx, child):
        return self.open


def test_a_session_nobody_holds_waits_only_if_its_nearest_live_ancestor_admits_it(rig):
    _, rts = rig
    rt = rts[1]
    rt.spawn(("shut",), Gate(False))
    rt.spawn(("open",), Gate(True))
    refused = ("vote", (("sub", ("shut",)), 0))
    waiting = ("vote", (("sub", ("open",)), 0))
    orphan = ("vote", (("sub", ("nobody",)), 0))  # no live ancestor: as before
    for session in (refused, waiting, orphan):
        rt.on_message(0, (session, "early"))
    assert set(rt._buffered) == {waiting, orphan}
    # The way down from the live ancestor is recorded, so closing the
    # never-spawned "sub" drops what waits beneath it.
    Context(rt, ("open",)).close(("sub", ("open",)))
    assert set(rt._buffered) == {orphan}
    assert rt._children == {("open",): {}}


def test_closing_a_session_forgets_everything_spawned_under_it(rig):
    net, rts = rig
    rt = rts[1]
    rt.spawn(("root",), Echo())
    Context(rt, ("root",)).spawn(("p",), Echo())
    Context(rt, ("p",)).spawn(("c",), Echo(), on_output=lambda _v: None)
    Context(rt, ("root",)).spawn(("q",), Echo())
    net.send(0, 1, (("p",), "v"))
    rt.on_message(0, (("late", ("c",)), "early"))  # buffered below ("c",)
    net.run()
    assert rt.result(("p",)) == "v" and ("late", ("c",)) in rt._buffered
    Context(rt, ("root",)).close(("p",))
    assert set(rt.instances) == {("root",), ("q",)}
    assert rt.outputs == {} and rt._callbacks == {} and rt._buffered == {}
    assert rt._children == {("root",): {("q",): None}}


class Sessions(Protocol):
    """Records the session each message is handed with."""

    def __init__(self):
        self.seen = []

    def on_message(self, ctx, sender, message):
        self.seen.append(ctx.session)


def test_a_message_sees_the_session_as_spawned(rig):
    """``("s", True) == ("s", 1)`` routes to the instance spawned as
    ``("s", 1)``, which sees its own id, not the spelling sent (one
    that hashes apart)."""
    net, rts = rig
    inst = rts[1].spawn(("s", 1), Sessions())
    net.send(0, 1, (("s", True), "spelled"))
    net.send(0, 1, (("s", 1), "plain"))
    net.run()
    assert inst.seen == [("s", 1), ("s", 1)]
    assert all(type(session[1]) is int for session in inst.seen)


def test_context_exposes_identity_and_keys(rig):
    _, rts = rig
    ctx = Context(rts[3], ("s",))
    assert ctx.party == 3
    assert ctx.n == 4
    assert ctx.keys.party == 3
    assert ctx.quorum.is_quorum({0, 1, 2})


def test_every_core_protocol_is_constructed_in_src():
    """A protocol nothing runs costs tests, wire types and reading and
    serves no deployment: every ``Protocol`` defined under ``core/`` is
    constructed by some other module of the package (tests, benchmarks
    and examples do not count)."""
    protocols = {}
    for info in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
        module = importlib.import_module(info.name)
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and issubclass(cls, Protocol)
                    and cls is not Protocol and cls.__module__ == info.name):
                protocols[name] = pathlib.Path(module.__file__)
    assert {"BinaryAgreement", "MultiValuedAgreement", "AtomicBroadcast"} <= set(protocols)
    package = pathlib.Path(repro.__file__).parent
    sources = {path: path.read_text() for path in package.rglob("*.py")}
    unbuilt = sorted(
        name for name, home in protocols.items()
        if not any(re.search(rf"\b{name}\(", text)
                   for path, text in sources.items() if path != home)
    )
    assert unbuilt == []
