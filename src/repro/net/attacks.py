"""Reusable protocol-aware Byzantine behaviors.

The generic chassis in :mod:`repro.net.adversary` (silent, crash, spam,
mutate) covers omission and noise; this module packages the *targeted*
attacks the tests and benchmarks mount against specific protocols, so
experiments can compose them declaratively:

* :class:`EquivocatingRbcSender` — tells different parties different
  values in reliable broadcast;
* :class:`EquivocatingCbcSender` — same against consistent broadcast
  (defeated by quorum-certificate uniqueness);
* :class:`TwoFacedVoter` — votes both ways, confirms everything, and
  spams DONE messages in binary agreement;
* :class:`CoinShareReplayer` — replays observed coin shares under its
  own identity (defeated by share-to-party binding in verification);
* :class:`DivergentAbcProposer` — signs different round-1 batches for
  different peers in atomic broadcast.

Each behavior is a :class:`~repro.net.simulator.Node` that can be
attached in place of an honest server (typically registered through the
:class:`~repro.net.adversary.CorruptionController`).  They are written
against the :class:`~repro.net.base.NetworkBackend` surface, so they
would run over the TCP transport as well as over the deterministic
simulator; today only the simulator tests and experiments mount them
(``repro.net.chaos`` builds its ``equivocate`` behavior from
:class:`~repro.net.adversary.MutatingNode` instead).
"""

from __future__ import annotations

import random
from typing import Hashable

from ..core.atomic_broadcast import AbcProposal, batch_digest, proposal_statement
from ..core.binary_agreement import AbaBval, AbaConf, AbaCoinShare, AbaDone
from ..core.consistent_broadcast import CbcSend
from ..core.reliable_broadcast import RbcSend
from ..crypto.dealer import PartyKeys
from .base import NetworkBackend
from .simulator import Node

__all__ = [
    "EquivocatingRbcSender",
    "EquivocatingCbcSender",
    "TwoFacedVoter",
    "CoinShareReplayer",
    "DivergentAbcProposer",
]


class _OneShot(Node):
    """Fires its attack on the first delivery, then goes silent."""

    def __init__(self, network: NetworkBackend, party: int) -> None:
        self.network = network
        self.party = party
        self.fired = False

    def on_message(self, sender: int, payload: object) -> None:
        if self.fired:
            return
        self.fired = True
        self.attack(sender, payload)

    def attack(self, sender: int, payload: object) -> None:
        raise NotImplementedError


class EquivocatingRbcSender(_OneShot):
    """Split the receivers into two camps with conflicting SENDs.

    Bracha's echo quorums guarantee at most one value can ever be
    delivered; with an even split, typically neither is.
    """

    def __init__(
        self,
        network: NetworkBackend,
        party: int,
        session: tuple,
        value_a: Hashable,
        value_b: Hashable,
        camp_a: list[int],
        camp_b: list[int],
    ) -> None:
        super().__init__(network, party)
        self.session = session
        self.value_a, self.value_b = value_a, value_b
        self.camp_a, self.camp_b = camp_a, camp_b

    def on_start(self) -> None:
        self.fired = True
        for target in self.camp_a:
            self.network.send(self.party, target, (self.session, RbcSend(self.value_a)))
        for target in self.camp_b:
            self.network.send(self.party, target, (self.session, RbcSend(self.value_b)))

    def attack(self, sender: int, payload: object) -> None:  # pragma: no cover
        pass


class EquivocatingCbcSender(_OneShot):
    """The same split against consistent broadcast: signature shares for
    conflicting values cannot both reach a quorum."""

    def __init__(
        self,
        network: NetworkBackend,
        party: int,
        session: tuple,
        value_a: Hashable,
        value_b: Hashable,
        camp_a: list[int],
        camp_b: list[int],
    ) -> None:
        super().__init__(network, party)
        self.session = session
        self.value_a, self.value_b = value_a, value_b
        self.camp_a, self.camp_b = camp_a, camp_b

    def on_start(self) -> None:
        self.fired = True
        for target in self.camp_a:
            self.network.send(self.party, target, (self.session, CbcSend(self.value_a)))
        for target in self.camp_b:
            self.network.send(self.party, target, (self.session, CbcSend(self.value_b)))

    def attack(self, sender: int, payload: object) -> None:  # pragma: no cover
        pass


class TwoFacedVoter(_OneShot):
    """Binary-agreement chaos: support both values in several rounds,
    confirm `{0,1}`, and claim both decisions via DONE."""

    def __init__(self, network: NetworkBackend, party: int, session: tuple,
                 rounds: int = 2) -> None:
        super().__init__(network, party)
        self.session = session
        self.rounds = rounds

    def attack(self, sender: int, payload: object) -> None:
        for r in range(1, self.rounds + 1):
            for value in (0, 1):
                self.network.broadcast(self.party, (self.session, AbaBval(r, value)))
            self.network.broadcast(
                self.party, (self.session, AbaConf(r, frozenset({0, 1})))
            )
        for value in (0, 1):
            self.network.broadcast(self.party, (self.session, AbaDone(value)))


class CoinShareReplayer(Node):
    """Replays every observed coin share under its own identity.

    Verification binds a share to its producing party (the DLEQ proof
    is against that party's verification values), so replays are
    rejected and the coin stays unbiased.
    """

    def __init__(self, network: NetworkBackend, party: int, session: tuple,
                 budget: int = 5) -> None:
        self.network = network
        self.party = party
        self.session = session
        self.budget = budget

    def on_message(self, sender: int, payload: object) -> None:
        if self.budget <= 0 or not (isinstance(payload, tuple) and len(payload) == 2):
            return
        _session, message = payload
        if isinstance(message, AbaCoinShare):
            self.budget -= 1
            self.network.broadcast(self.party, (self.session, message))


class DivergentAbcProposer(_OneShot):
    """Signs a different (validly signed!) round-1 batch for each peer.

    External validity accepts any properly signed proposal, so this is
    allowed adversary behavior; agreement on ONE candidate list is what
    keeps the total order intact.
    """

    def __init__(
        self,
        network: NetworkBackend,
        party: int,
        session: tuple,
        keys: PartyKeys,
        batches: dict[int, tuple],
        seed: int = 0,
    ) -> None:
        super().__init__(network, party)
        self.session = session
        self.keys = keys
        self.batches = batches
        self.rng = random.Random(seed)

    def attack(self, sender: int, payload: object) -> None:
        for target, batch in self.batches.items():
            statement = proposal_statement(self.session, 1, batch_digest(batch))
            signature = self.keys.signing_key.sign(statement, self.rng)
            self.network.send(
                self.party, target, (self.session, AbcProposal(1, batch, signature))
            )
