import random

from repro.net.simulator import Network, Node

from bench.lockstep import LockStepScheduler


class Fanout(Node):
    """Answers a message of depth d with two of depth d + 1, and notes
    in which generation each depth arrived."""

    def __init__(self, party, network, scheduler, seen, limit):
        self.party, self.network, self.scheduler = party, network, scheduler
        self.seen, self.limit = seen, limit

    def on_message(self, sender, depth):
        self.seen.append((self.scheduler.generation, depth))
        if depth < self.limit:
            for recipient in (0, 1):
                self.network.send(self.party, recipient, depth + 1)


def test_a_generation_is_delivered_before_anything_sent_during_it():
    scheduler = LockStepScheduler()
    network = Network(scheduler, random.Random(0))
    seen = []
    for party in (0, 1):
        network.attach(party, Fanout(party, network, scheduler, seen, limit=5))
    network.send(0, 1, 0)
    network.run()
    assert len(seen) == 2**6 - 1
    # Depth d is d message delays from the start: generation d + 1.
    assert all(generation == depth + 1 for generation, depth in seen)
    generations = [generation for generation, _ in seen]
    assert generations == sorted(generations)


def test_capture_keeps_the_first_payloads_in_delivery_order():
    scheduler = LockStepScheduler(capture=3)
    network = Network(scheduler, random.Random(0))
    seen = []
    for party in (0, 1):
        network.attach(party, Fanout(party, network, scheduler, seen, limit=3))
    network.send(0, 1, 0)
    network.run()
    assert scheduler.corpus == [0, 1, 1]
