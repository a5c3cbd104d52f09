"""Protocol framework: message-driven state machines over sessions.

Section 3 stresses that the broadcast stack is *modular*: secure causal
atomic broadcast sits on atomic broadcast, which sits on multi-valued
Byzantine agreement, which uses binary agreement and the broadcast
primitives.  Protocols here are objects addressed by a *session id*
(a tuple like ``("rbc", sender, tag)``); a per-server
:class:`~repro.core.runtime.ProtocolRuntime` routes incoming messages
to instances and lets protocols spawn sub-protocol instances, wiring
their outputs back via callbacks.

Protocols never see the network directly — only a :class:`Context`,
which also carries the party's keys, the quorum system (threshold or
generalized, Section 4.2) and a deterministic RNG.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..adversary.quorums import QuorumSystem
from ..crypto.dealer import PartyKeys, PublicKeys
from ..crypto.schnorr import VerifiedMemo

if TYPE_CHECKING:  # pragma: no cover
    from ..net.tracing import Trace
    from .runtime import ProtocolRuntime

__all__ = ["Context", "Protocol", "SessionId"]

SessionId = tuple


class Protocol:
    """A message-driven protocol instance bound to one session.

    ``session`` is the id the runtime spawned it under, set at spawn;
    every message routed to it comes with a :class:`Context` for that
    id, never for a received spelling that merely compares equal
    (``("mvba", (s, True)) == ("mvba", (s, 1))``, yet they hash apart).
    An instance is held under one session at a time.
    """

    session: SessionId

    def on_start(self, ctx: "Context") -> None:
        """Called once when the instance is spawned."""

    def on_message(self, ctx: "Context", sender: int, message: object) -> None:
        """Called for every message addressed to this session."""
        raise NotImplementedError

    def admits(self, ctx: "Context", child: SessionId) -> bool:
        """Whether traffic for ``child``, a session under this one that
        nobody holds yet, may be buffered until it is spawned."""
        return True


class Context:
    """Everything a protocol instance may touch.

    Attributes:
        party: this server's id.
        session: the instance's session id.
        public: the dealer's public key bundle.
        keys: this server's private key bundle.
        quorum: the quorum system (Section 4.2 rules).
        rng: per-server deterministic randomness.
        verified: this server's memo of signatures it already accepted,
            passed to every signature check (verify once per party).
    """

    __slots__ = ("_runtime", "session")

    def __init__(self, runtime: "ProtocolRuntime", session: SessionId) -> None:
        self._runtime = runtime
        self.session = session

    # -- identity and keys ---------------------------------------------------

    @property
    def party(self) -> int:
        return self._runtime.party

    @property
    def n(self) -> int:
        return self._runtime.public.n

    @property
    def public(self) -> PublicKeys:
        return self._runtime.public

    @property
    def keys(self) -> PartyKeys:
        return self._runtime.keys

    @property
    def quorum(self) -> QuorumSystem:
        return self._runtime.public.quorum

    @property
    def rng(self) -> random.Random:
        return self._runtime.rng

    @property
    def verified(self) -> VerifiedMemo:
        return self._runtime.verified

    @property
    def trace(self) -> "Trace":
        return self._runtime.network.trace

    # -- communication ---------------------------------------------------------

    def send(self, recipient: int, message: object) -> None:
        """Point-to-point send within this session."""
        self._runtime.network.send(self.party, recipient, (self.session, message))

    def broadcast(self, message: object) -> None:
        """Send to all parties (including self) within this session."""
        self._runtime.network.broadcast(self.party, (self.session, message))

    def after_turn(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when this party's current turn ends, once it
        has read what its senders had already sent it
        (``NetworkBackend.defer``)."""
        self._runtime.network.defer(self.party, callback)

    # -- composition -------------------------------------------------------------

    def spawn(
        self,
        session: SessionId,
        protocol: Protocol,
        on_output: Callable[[object], None] | None = None,
    ) -> Protocol:
        """Create a sub-protocol instance (idempotent per session)."""
        return self._runtime.spawn(session, protocol, on_output=on_output, parent=self.session)

    def close(self, session: SessionId) -> None:
        """Forget a sub-protocol instance and everything under it."""
        self._runtime.close(session, parent=self.session)

    def instance(self, session: SessionId) -> Protocol | None:
        return self._runtime.instances.get(session)

    def at(self, session: SessionId) -> "Context":
        """A context facade for another session on the same runtime —
        used by layers that must poke a sub-protocol instance directly
        (e.g. re-running a pending validation)."""
        return Context(self._runtime, session)

    def result(self, session: SessionId) -> object | None:
        """A finished session's output, or None if not (yet) produced."""
        return self._runtime.result(session)

    def output(self, value: object) -> None:
        """Emit this instance's result to whoever spawned/awaits it."""
        self._runtime.deliver_output(self.session, value)
