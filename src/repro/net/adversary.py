"""Byzantine corruption harness.

Without loss of generality the paper assumes a single adversary that
controls all corrupted parties and the network.  This module is the
server-side half of that adversary (the network half lives in
:mod:`repro.net.scheduler`): it tracks which parties are corrupted,
checks the corruption against the declared adversary structure, and
provides reusable malicious node behaviors.

Protocol-specific attacks (equivocating broadcast senders, parties
voting both ways in agreement, servers leaking request plaintext) are
built on these hooks in the protocol tests and benchmarks.
"""

from __future__ import annotations

import random
from typing import Callable

from ..adversary.quorums import QuorumSystem
from .base import NetworkBackend
from .simulator import Node

__all__ = [
    "CorruptionController",
    "SilentNode",
    "CrashNode",
    "SpamNode",
    "MutatingNode",
]


class CorruptionController:
    """Registers corruptions and enforces the adversary-structure bound.

    The protocols' guarantees hold only when the corrupted coalition
    lies in the declared structure; experiments that intentionally
    exceed it (to show guarantees degrade) pass ``unchecked=True``.
    """

    def __init__(self, quorum: QuorumSystem) -> None:
        self.quorum = quorum
        self.corrupted: set[int] = set()

    def corrupt(self, network, party: int, node: Node, unchecked: bool = False) -> None:
        """Replace a party's node with an adversarial one.

        Requires the simulator backend (live node swap via ``nodes``);
        on the TCP backend a corrupted party is *started* byzantine
        instead (``repro.net.attacks.byzantine_node`` /
        ``run-replica --byzantine``) — the behavior classes themselves
        run on either backend.
        """
        proposed = self.corrupted | {party}
        if not unchecked and not self.quorum.can_be_corrupted(proposed):
            raise ValueError(
                f"corrupting {sorted(proposed)} exceeds the adversary structure"
            )
        self.corrupted.add(party)
        network.nodes[party] = node

    def honest(self, all_parties: list[int]) -> list[int]:
        return [p for p in all_parties if p not in self.corrupted]


class SilentNode(Node):
    """A corrupted party that receives everything and says nothing.

    Indistinguishable from a slow honest party — the behavior that
    breaks timeout-based failure detectors (Section 2.2) and that the
    asynchronous protocols must tolerate by design.
    """

    def on_message(self, sender: int, payload: object) -> None:
        pass


class CrashNode(Node):
    """Runs the honest protocol, then crashes after ``crash_after`` deliveries.

    Used by the hybrid-failure experiments (Section 6) where crashes
    are injected separately from Byzantine corruptions.
    """

    def __init__(self, inner: Node, crash_after: int) -> None:
        self.inner = inner
        self.crash_after = crash_after
        self._seen = 0

    def on_start(self) -> None:
        if self.crash_after > 0:
            self.inner.on_start()

    def on_message(self, sender: int, payload: object) -> None:
        if self._seen >= self.crash_after:
            return
        self._seen += 1
        self.inner.on_message(sender, payload)


class SpamNode(Node):
    """Floods peers with garbage payloads on every delivery.

    Exercises input validation: honest protocol stacks must discard
    unparseable or unauthenticated junk without state corruption.
    """

    def __init__(self, network: NetworkBackend, party: int, payload_factory: Callable[[random.Random], object],
                 rng: random.Random, fanout: int = 3) -> None:
        self.network = network
        self.party = party
        self.payload_factory = payload_factory
        self.rng = rng
        self.fanout = fanout

    def on_message(self, sender: int, payload: object) -> None:
        parties = self.network.parties
        for _ in range(self.fanout):
            target = parties[self.rng.randrange(len(parties))]
            self.network.send(self.party, target, self.payload_factory(self.rng))


class MutatingNode(Node):
    """Wraps an honest node but rewrites its outgoing messages.

    The mutation hook sees ``(recipient, payload)`` and may return a
    different payload, ``None`` to drop, or a list of payloads to
    equivocate.  This is the generic chassis for Byzantine senders.
    """

    def __init__(
        self,
        network: NetworkBackend,
        party: int,
        inner_factory: Callable[["_InterceptNetwork"], Node],
        mutate: Callable[[int, object], object | None | list[object]],
    ) -> None:
        self.network = network
        self.party = party
        self.mutate = mutate
        self._intercept = _InterceptNetwork(self)
        self.inner = inner_factory(self._intercept)

    def on_start(self) -> None:
        self.inner.on_start()

    def on_message(self, sender: int, payload: object) -> None:
        self.inner.on_message(sender, payload)

    def _deliver_out(self, recipient: int, payload: object) -> None:
        result = self.mutate(recipient, payload)
        if result is None:
            return
        outputs = result if isinstance(result, list) else [result]
        for out in outputs:
            self.network.send(self.party, recipient, out)


class _InterceptNetwork:
    """A network facade handed to the wrapped honest node."""

    def __init__(self, owner: MutatingNode) -> None:
        self.owner = owner

    @property
    def parties(self) -> list[int]:
        return self.owner.network.parties

    @property
    def trace(self):
        return self.owner.network.trace

    def send(self, sender: int, recipient: int, payload: object) -> None:
        self.owner._deliver_out(recipient, payload)

    def broadcast(self, sender: int, payload: object) -> None:
        for recipient in self.parties:
            self.owner._deliver_out(recipient, payload)

    def defer(self, party: int, callback: Callable[[], None]) -> None:
        self.owner.network.defer(self.owner.party, callback)
