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
run over the TCP transport as well as over the deterministic simulator.

:func:`byzantine_node` builds the kinds a chaos scenario or sweep shape
names (:data:`BYZANTINE_KINDS`) for a whole party: ``equivocate`` is the
party's own honest stack, built by its host, behind a
:class:`~repro.net.adversary.MutatingNode`.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from ..core.atomic_broadcast import AbcProposal, batch_digest, proposal_statement
from ..core.binary_agreement import AbaBval, AbaConf, AbaCoinShare, AbaDone
from ..core.consistent_broadcast import CbcSend
from ..core.reliable_broadcast import RbcSend
from ..crypto.dealer import PartyKeys
from .adversary import MutatingNode, SilentNode, SpamNode
from .base import NetworkBackend
from .simulator import Node

__all__ = [
    "BYZANTINE_KINDS",
    "byzantine_node",
    "signed_proposal",
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

    send = RbcSend  # the message each camp is sent, around its value

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
        for camp, value in ((self.camp_a, self.value_a), (self.camp_b, self.value_b)):
            for target in camp:
                self.network.send(self.party, target, (self.session, self.send(value)))

    def attack(self, sender: int, payload: object) -> None:  # pragma: no cover
        pass


class EquivocatingCbcSender(EquivocatingRbcSender):
    """The same split against consistent broadcast: signature shares for
    conflicting values cannot both reach a quorum."""

    send = CbcSend


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
            proposal = signed_proposal(self.keys, self.session, 1, batch, self.rng)
            self.network.send(self.party, target, (self.session, proposal))


def signed_proposal(
    keys: PartyKeys, session: tuple, rnd: int, batch: tuple, rng: random.Random
) -> AbcProposal:
    """A validly signed proposal of ``batch`` for round ``rnd``: what a
    corrupted party may send in place of the one it proposed."""
    statement = proposal_statement(session, rnd, batch_digest(batch))
    return AbcProposal(rnd, batch, keys.signing_key.sign(statement, rng))


# -- whole corrupted parties ----------------------------------------------------------

BYZANTINE_KINDS = ("silent", "spam", "equivocate")


def byzantine_node(
    kind: str,
    network: NetworkBackend,
    party: int,
    keys: PartyKeys,
    honest: Callable[[object], Node],
    seed: int = 0,
) -> Node:
    """The node to attach in place of ``party``'s honest one.

    ``honest(net)`` builds the party's honest stack on ``net`` the way
    its host builds every other party's (runtime, replica, hooks) and
    returns the node; only ``equivocate`` calls it.

    * ``silent`` — receives everything, says nothing (the failure mode
      timeout-based detectors cannot distinguish from slowness);
    * ``spam`` — floods peers with well-formed junk on every delivery;
    * ``equivocate`` — runs the honest stack inside a
      :class:`~repro.net.adversary.MutatingNode` but re-signs every
      round's proposal to an odd-numbered party as a *different* one
      (an empty batch) in atomic broadcast: allowed adversary behavior
      that the agreement layer must neutralize.
    """
    if kind == "silent":
        return SilentNode()
    if kind == "spam":
        rng = random.Random(seed ^ 0x5FA17)
        return SpamNode(
            network, party, lambda r: ("chaos-junk", r.getrandbits(32)), rng
        )
    if kind == "equivocate":
        sign_rng = random.Random(seed ^ 0xE041)

        def mutate(recipient: int, payload: object):
            if isinstance(payload, tuple) and len(payload) == 2:
                session, message = payload
                if isinstance(message, AbcProposal) and recipient % 2 == 1:
                    return (
                        session,
                        signed_proposal(keys, session, message.round, (), sign_rng),
                    )
            return payload

        return MutatingNode(network, party, honest, mutate)
    raise ValueError(
        f"unknown byzantine kind {kind!r} (expected one of {BYZANTINE_KINDS})"
    )
