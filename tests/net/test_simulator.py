"""The discrete-event network: delivery, determinism, crash, liveness."""

import random

import pytest

from repro.net.scheduler import FifoScheduler, RandomScheduler, ReorderScheduler
from repro.net.simulator import LivenessError, Network, Node


class Recorder(Node):
    def __init__(self):
        self.received = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


class Echoer(Node):
    """Replies once to each message — generates follow-up traffic."""

    def __init__(self, network, party):
        self.network = network
        self.party = party
        self.seen = 0

    def on_message(self, sender, payload):
        self.seen += 1
        if payload == "ping":
            self.network.send(self.party, sender, "pong")


def _network(scheduler=None, seed=0, nodes=3, node_factory=None):
    net = Network(scheduler or FifoScheduler(), random.Random(seed))
    out = {}
    for i in range(nodes):
        node = node_factory(net, i) if node_factory else Recorder()
        net.attach(i, node)
        out[i] = node
    return net, out


def test_point_to_point_delivery():
    net, nodes = _network()
    net.send(0, 1, "hello")
    net.run()
    assert nodes[1].received == [(0, "hello")]
    assert nodes[2].received == []


def test_broadcast_includes_sender():
    net, nodes = _network()
    net.broadcast(1, "x")
    net.run()
    for i in range(3):
        assert (1, "x") in nodes[i].received


def test_on_start_called_once():
    net, nodes = _network()
    net.start()
    net.start()
    assert all(n.started for n in nodes.values())


def test_send_to_unknown_party_rejected():
    net, _ = _network()
    with pytest.raises(ValueError):
        net.send(0, 99, "x")


def test_fifo_preserves_order():
    net, nodes = _network()
    for k in range(10):
        net.send(0, 1, k)
    net.run()
    assert [p for _, p in nodes[1].received] == list(range(10))


def test_random_scheduler_is_deterministic_per_seed():
    def run(seed):
        net, nodes = _network(RandomScheduler(), seed=seed)
        for k in range(20):
            net.send(0, 1, k)
            net.send(0, 2, k)
        net.run()
        return [p for _, p in nodes[1].received]

    assert run(5) == run(5)
    assert run(5) != run(6)  # overwhelmingly likely


def test_reply_traffic_is_processed():
    net, nodes = _network(node_factory=Echoer)
    net.send(0, 1, "ping")
    net.run()
    assert nodes[0].seen == 1  # got the pong


def test_crashed_party_receives_nothing():
    net, nodes = _network()
    net.crash(2)
    net.broadcast(0, "x")
    net.run()
    assert nodes[2].received == []
    assert (0, "x") in nodes[1].received


def test_recover_restores_delivery():
    net, nodes = _network()
    net.crash(2)
    net.send(0, 2, "lost")  # dropped while crashed
    net.run()
    net.recover(2)
    net.send(0, 2, "after")
    net.run()
    assert nodes[2].received == [(0, "after")]


def test_recover_with_replacement_node():
    net, nodes = _network()
    net.crash(1)
    fresh = Recorder()
    net.recover(1, fresh)
    net.send(0, 1, "hello-again")
    net.run()
    assert fresh.received == [(0, "hello-again")]
    assert nodes[1].received == []  # the old node is detached


def test_run_until_predicate_counts_steps():
    net, nodes = _network()
    for k in range(10):
        net.send(0, 1, k)
    steps = net.run(until=lambda: len(nodes[1].received) >= 3)
    assert steps == 3
    assert len(net.pending) == 7


def test_liveness_error_on_quiescence():
    net, nodes = _network()
    net.send(0, 1, "only")
    with pytest.raises(LivenessError):
        net.run(until=lambda: False, max_steps=100)


def test_liveness_error_on_budget_exhaustion():
    net, _ = _network(node_factory=Echoer)
    # Echoers generate pongs; predicate never true.
    net.send(0, 1, "ping")
    with pytest.raises(LivenessError):
        net.run(until=lambda: False, max_steps=5)


def test_trace_counts():
    net, _ = _network()
    net.broadcast(0, "m")
    net.run()
    assert net.trace.sent == 3
    assert net.trace.delivered == 3
    assert net.delivered_count == 3


def test_duplicate_attach_rejected():
    net, _ = _network()
    with pytest.raises(ValueError):
        net.attach(0, Recorder())


# -- turns: work a party defers until it has read what it was sent ------------------


class Deferring(Node):
    """Logs each delivery and, on the first one from ``sender``, defers a
    log entry to the end of the turn; ``during`` runs inside that first
    delivery (a send made after the turn began)."""

    def __init__(self, network, party, log, sender=0, during=lambda: None):
        self.network = network
        self.party = party
        self.log = log
        self.sender = sender
        self.during = during
        self.deferred = False

    def on_message(self, sender, payload):
        self.log.append(payload)
        if sender == self.sender and not self.deferred:
            self.deferred = True
            self.network.defer(self.party, lambda: self.log.append("turn-end"))
            self.during()


@pytest.mark.parametrize("scheduler", [FifoScheduler, RandomScheduler, ReorderScheduler])
def test_a_turn_ends_once_what_its_sender_had_sent_is_delivered(scheduler):
    """Three messages from 0 to 1, delivered in any order amid traffic
    from 2: the turn the first delivery began ends right after the last
    of the three, never before."""
    log = []
    net = Network(scheduler(), random.Random(3))
    net.attach(0, Recorder())
    net.attach(1, Deferring(net, 1, log))
    net.attach(2, Recorder())
    for k in range(3):
        net.send(0, 1, ("from-0", k))
        net.send(2, 1, ("from-2", k))
    while net.step():
        if "turn-end" in log:
            break
    ended = log.index("turn-end")
    assert sorted(p for p in log[:ended] if p[0] == "from-0") == [("from-0", k) for k in range(3)]
    assert log[ended - 1][0] == "from-0"


def test_a_turn_does_not_wait_on_a_message_sent_after_it_began():
    """Party 1's turn begins with 0's only message; 0 sends another while
    it is under way (and 2 sends one too): the turn ends right after the
    delivery that began it, before either later message arrives."""
    log = []
    net = Network(FifoScheduler(), random.Random(0))

    def later():
        net.send(0, 1, "later-from-0")
        net.send(2, 1, "later-from-2")

    net.attach(0, Recorder())
    net.attach(1, Deferring(net, 1, log, during=later))
    net.attach(2, Recorder())
    net.send(0, 1, "first")
    net.run()
    assert log == ["first", "turn-end", "later-from-0", "later-from-2"]


def test_a_call_outside_any_delivery_ends_its_turn_before_the_next_delivery():
    """Work deferred outside any delivery runs before the next delivery —
    and, with nothing pending, when the network runs to quiescence; what
    it sends is delivered in that same run."""
    net, nodes = _network()
    order = []
    net.defer(1, lambda: order.append("deferred"))
    net.send(0, 2, "x")
    nodes[2].on_message = lambda sender, payload: order.append(payload)
    net.step()
    assert order == ["deferred", "x"]
    net.defer(1, lambda: net.send(1, 2, "sent-at-quiescence"))
    assert net.run() == 1
    assert order == ["deferred", "x", "sent-at-quiescence"]


@pytest.mark.parametrize("fate", ["crashed", "crashed-and-recovered", "replaced"])
def test_a_crashed_or_restarted_partys_deferred_work_never_runs(fate):
    """Deferred in a turn that waits on a message still in flight, and
    outside any turn: neither runs once the party crashed (even if it
    then recovers) or its node was replaced."""
    log = []
    net = Network(FifoScheduler(), random.Random(0))
    net.attach(0, Recorder())
    net.attach(1, Deferring(net, 1, log))
    net.send(0, 1, "first")
    net.send(0, 1, "second")
    net.step()  # the turn began and waits on "second"
    net.defer(1, lambda: log.append("outside"))
    assert log == ["first"]
    if fate == "replaced":
        net.nodes[1] = Recorder()
    else:
        net.crash(1)
        if fate == "crashed-and-recovered":
            net.recover(1)
    net.run()
    assert "turn-end" not in log and "outside" not in log
