"""Discrete-event simulation of an asynchronous message-passing network.

Section 2 of the paper: *"all parties are linked by asynchronous
point-to-point communication channels ... the adversary controls the
communication links ... in short, the network is the adversary."*

This module is that model, executable:

* every sent message enters a pending pool;
* a :class:`~repro.net.scheduler.Scheduler` — the adversary — picks
  which pending message is delivered next, with no fairness or timing
  obligations beyond *eventual delivery* of messages between honest
  parties (the standard asynchronous liveness assumption);
* channels are authenticated: a delivered message carries its true
  sender (the model's secure point-to-point links, bootstrapped from
  the dealer/PKI);
* runs are fully deterministic given the scheduler's seed, which is
  what makes the agreement experiments reproducible.

Time in an asynchronous system is not wall-clock; the simulator counts
*delivery steps*, and protocols report their own round numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..crypto.dealer import is_server
from .tracing import Trace

__all__ = ["Envelope", "Node", "Network", "LivenessError"]


@dataclass(frozen=True)
class Envelope:
    """A message in flight.

    Attributes:
        seq: global send sequence number (unique, for determinism).
        sender: authenticated origin party id.
        recipient: destination party id.
        payload: opaque protocol payload.
    """

    seq: int
    sender: int
    recipient: int
    payload: object


class Node:
    """Interface of a party attached to the network.

    Subclasses implement the honest protocol stack or an adversarial
    behavior.  Nodes interact with the world only through the
    :class:`Network` handle given at attach time.
    """

    def on_start(self) -> None:
        """Called once before any message is delivered."""

    def on_message(self, sender: int, payload: object) -> None:
        """Called for each delivered message."""
        raise NotImplementedError


class LivenessError(AssertionError):
    """The protocol failed to make progress under the chosen schedule."""


class Network:
    """The asynchronous network and its adversarial message scheduler."""

    def __init__(self, scheduler, rng: random.Random | None = None) -> None:
        self.scheduler = scheduler
        self.rng = rng or random.Random(0)
        self.nodes: dict[int, Node] = {}
        self.pending: list[Envelope] = []
        self.delivered_count = 0
        self.trace = Trace()
        self.crashed: set[int] = set()
        self._seq = 0
        self._started: set[int] = set()

    # -- topology ----------------------------------------------------------

    def attach(self, party: int, node: Node) -> None:
        if party in self.nodes:
            raise ValueError(f"party {party} already attached")
        self.nodes[party] = node

    @property
    def parties(self) -> list[int]:
        return sorted(self.nodes)

    # -- sending -----------------------------------------------------------

    def send(self, sender: int, recipient: int, payload: object) -> None:
        """Queue a point-to-point message (authenticated by construction)."""
        if recipient not in self.nodes:
            raise ValueError(f"unknown recipient {recipient}")
        self._seq += 1
        self.pending.append(
            Envelope(seq=self._seq, sender=sender, recipient=recipient, payload=payload)
        )
        self.trace.record_send(sender, recipient, payload)

    def broadcast(self, sender: int, payload: object) -> None:
        """Send to every attached server, including the sender itself
        (clients are outside the group: see ``NetworkBackend.broadcast``).

        Self-delivery goes through the pool too: a party's own message
        is just another asynchronous event (keeps protocols honest about
        not assuming instantaneous local delivery).
        """
        for recipient in self.parties:
            if is_server(recipient):
                self.send(sender, recipient, payload)

    # -- fault injection -----------------------------------------------------

    def crash(self, party: int) -> None:
        """Crash a party: it stops receiving (its outbound in-flight
        messages may still be delivered, as in the crash model)."""
        self.crashed.add(party)

    def recover(self, party: int, node: Node | None = None) -> None:
        """Crash-recovery (Section 6): the party comes back — typically
        with a *fresh* node whose volatile state is gone, which then
        runs the application-level state transfer."""
        self.crashed.discard(party)
        if node is not None:
            self.nodes[party] = node

    # -- the run loop --------------------------------------------------------

    def start(self) -> None:
        """Run every node's ``on_start`` hook exactly once."""
        for party in self.parties:
            if party not in self._started:
                self._started.add(party)
                self.nodes[party].on_start()

    def step(self) -> bool:
        """Deliver one message chosen by the adversary; False if none left."""
        while True:
            index = self.scheduler.select(self.pending, self.rng)
            if index is None:
                return False
            envelope = self.pending.pop(index)
            if envelope.recipient in self.crashed:
                continue  # dropped silently
            break
        self.delivered_count += 1
        self.trace.record_delivery(envelope)
        self.nodes[envelope.recipient].on_message(envelope.sender, envelope.payload)
        return True

    def run(
        self,
        max_steps: int = 1_000_000,
        until: Callable[[], bool] | None = None,
    ) -> int:
        """Deliver messages until quiescence, a predicate, or a step cap.

        Returns the number of delivery steps taken.  Raises
        :class:`LivenessError` if ``until`` was given but never became
        true — the caller asserted liveness and the schedule defeated
        it (this is how the liveness experiments detect a blocked
        protocol, e.g. the deterministic baseline under attack).
        """
        self.start()
        steps = 0
        while steps < max_steps:
            if until is not None and until():
                return steps
            if not self.step():
                if until is None or until():
                    return steps
                raise LivenessError(
                    f"network quiescent after {steps} steps but goal not reached"
                )
            steps += 1
        if until is not None and not until():
            raise LivenessError(f"goal not reached within {max_steps} steps")
        return steps
