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

Turns: a party may put work off to the end of its *turn*
(:meth:`Network.defer`, which protocols reach as
``Context.after_turn``), as a TCP replica puts it off to the end of its
event-loop iteration.  Delivering a message from ``s`` begins a turn of
its recipient ``p``; that turn ends once every message ``s`` had sent
``p`` before the delivery began has been delivered, so what a submitter
sent in one go is read before ``p`` acts on it.  A turn never waits on
traffic sent after it began, so under eventual delivery every turn
ends.  A call made outside any delivery (by the code that runs the
network) is a turn of its own that ends before the next delivery (or
at quiescence).  Deferred work runs right after the delivery that ends
its turn; a crashed or replaced node's never runs.

Admission: a payload whose registered values lack their declared types
(:func:`repro.codec.admits`) reaches no node, as on TCP; it is counted.

Timers (:meth:`Network.call_later`): a second is
:data:`STEPS_PER_SECOND` deliveries, so a timer is due at a delivery
count; it rings then, or at quiescence if that comes first.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..codec import admits
from ..crypto.dealer import is_server
from .tracing import Trace

__all__ = ["STEPS_PER_SECOND", "Envelope", "Node", "Network", "LivenessError"]

STEPS_PER_SECOND = 4000  # delivery steps that stand for a second
_NEVER = 1 << 62  # the due count while no timer is pending


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


# Deferred work: the party, its node when it deferred, the callback.
_Deferred = tuple[int, Node | None, Callable[[], None]]


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
        # Turns (module docstring).  Per link (sender, recipient): the
        # seqs not yet delivered, in send order, and the deferred work
        # waiting on them as (mark, deferred) — due once no seq up to
        # ``mark`` is left.  Seqs delivered out of send order
        # wait in ``_early`` until they reach the head of their link.
        self._undelivered: dict[tuple[int, int], deque[int]] = {}
        self._early: set[int] = set()
        self._waiting: dict[tuple[int, int], deque[tuple[int, _Deferred]]] = {}
        self._due: deque[_Deferred] = deque()
        # The delivery under way: (sender, recipient, mark), or None.
        self._turn: tuple[int, int, int] | None = None
        # Timers as (due count, party, node, callback) by count, in the
        # order set; ``_next_due`` is the first's, checked per delivery.
        self._timers: list[tuple] = []
        self._next_due = _NEVER

    # -- topology ----------------------------------------------------------

    def attach(self, party: int, node: Node) -> None:
        """Attach ``party``'s node; a fresh one replaces a crashed one."""
        if party in self.nodes and party not in self.crashed:
            raise ValueError(f"party {party} already attached")
        self.recover(party, node)

    def admit_peer(self, party: int, address: object, channel_key: bytes) -> None:
        """Every attached party is reachable already."""

    def forget_peer(self, party: int) -> None:
        """A departed party is crashed by its cell, not forgotten."""

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
        link = (sender, recipient)
        undelivered = self._undelivered.get(link)
        if undelivered is None:
            undelivered = self._undelivered[link] = deque()
        undelivered.append(self._seq)
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

    # -- turns -----------------------------------------------------------------

    def defer(self, party: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when ``party``'s current turn ends (module
        docstring, "Turns"): after the delivery that leaves no message
        its sender had sent ``party`` before the turn began, or — called
        outside a delivery to ``party`` — before the next delivery."""
        node = self.nodes.get(party)
        turn = self._turn
        if turn is not None and turn[1] == party:
            sender, _recipient, mark = turn
            link = (sender, party)
            waiting = self._waiting.get(link)
            if waiting is None:
                waiting = self._waiting[link] = deque()
            waiting.append((mark, (party, node, callback)))
        else:
            self._due.append((party, node, callback))

    def end_turns(self) -> None:
        """Run every callback whose turn has ended, in deferral order —
        those deferred outside any delivery included; one a callback
        defers runs too.  A crashed or replaced node's callbacks are dropped."""
        due = self._due
        nodes = self.nodes
        while due:
            party, node, callback = due.popleft()
            if nodes.get(party) is node:
                callback()

    def call_later(self, party: int, delay: float, callback: Callable[[], None]) -> None:
        """Ring ``callback`` ``delay`` seconds of deliveries from now, or at
        quiescence first (module docstring); a crashed or replaced node's
        never runs."""
        due = self.delivered_count + max(1, int(delay * STEPS_PER_SECOND))
        self._timers.append((due, party, self.nodes.get(party), callback))
        self._timers.sort(key=lambda timer: timer[0])  # stable
        self._next_due = self._timers[0][0]

    def _ring(self, quiescent: bool) -> bool:
        """Run the timers that are due — at quiescence, the earliest
        pending one as well — and say whether one ran."""
        timers, ran = self._timers, False
        while timers and (timers[0][0] <= self.delivered_count or (quiescent and not ran)):
            _due, party, node, callback = timers.pop(0)
            if self.nodes.get(party) is node and party not in self.crashed:
                callback()
                ran = True
        self._next_due = timers[0][0] if timers else _NEVER
        return ran

    # -- fault injection -----------------------------------------------------

    def crash(self, party: int) -> None:
        """Crash a party: it stops receiving (its outbound in-flight
        messages may still be delivered, as in the crash model), and
        what it deferred never runs."""
        self.crashed.add(party)
        self._due = deque(entry for entry in self._due if entry[0] != party)
        for link in [link for link in self._waiting if link[1] == party]:
            del self._waiting[link]

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
        """Deliver one message chosen by the adversary — at quiescence,
        ring the earliest timer instead; False if neither is left.

        The turns that ended before it (calls made outside any delivery)
        are run first, the one it ends right after it."""
        if self._due:
            self.end_turns()
        while True:
            index = self.scheduler.select(self.pending, self.rng)
            if index is None:
                return self._ring(quiescent=True)
            envelope = self.pending.pop(index)
            link = (envelope.sender, envelope.recipient)
            undelivered = self._undelivered[link]
            seq = envelope.seq
            if undelivered[0] == seq:
                undelivered.popleft()
                early = self._early
                while undelivered and undelivered[0] in early:
                    early.remove(undelivered.popleft())
            else:
                self._early.add(seq)
            if envelope.recipient in self.crashed:
                continue  # dropped silently
            break
        self.delivered_count += 1
        self.trace.record_delivery(envelope)
        self._turn = (envelope.sender, envelope.recipient, self._seq)
        try:
            if admits(envelope.payload):
                self.nodes[envelope.recipient].on_message(envelope.sender, envelope.payload)
            else:
                self.trace.bump("admission.dropped")
        finally:
            self._turn = None
        waiting = self._waiting.get(link)
        if waiting:
            head = undelivered[0] if undelivered else self._seq + 1
            while waiting and waiting[0][0] < head:
                self._due.append(waiting.popleft()[1])
        if self._due:
            self.end_turns()
        if self.delivered_count >= self._next_due:
            self._ring(quiescent=False)
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
