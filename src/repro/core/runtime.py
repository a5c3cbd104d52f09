"""Per-server protocol runtime: session routing and composition.

One :class:`ProtocolRuntime` runs on every server.  It demultiplexes
incoming ``(session, message)`` payloads to protocol instances and
buffers, per session and up to a bound, messages that arrive before
their instance exists: the asynchronous network may deliver a
sub-protocol's messages — a reliable broadcast this server has not
heard of, round 7 of an agreement it has not reached — before the local
parent has spawned it, and :meth:`ProtocolRuntime.spawn` replays them
to the instance when the parent does.  Nothing is created on a peer's
say-so, and a session nobody holds is buffered only if the nearest live
session its id names admits it (:meth:`Protocol.admits`).  Closing a
session forgets it and everything spawned under it.
"""

from __future__ import annotations

import random
from typing import Callable

from ..crypto.dealer import PartyKeys, PublicKeys
from ..crypto.schnorr import VerifiedMemo
from ..net.base import NetworkBackend
from ..net.simulator import Node
from .protocol import Context, Protocol, SessionId

__all__ = ["ProtocolRuntime"]

# Cap on messages buffered for a not-yet-spawned session; a Byzantine
# flood beyond this is dropped (honest protocols stay far below it).
_BUFFER_LIMIT = 4096


class ProtocolRuntime(Node):
    """The node a correct server attaches to the network."""

    def __init__(
        self,
        party: int,
        network: NetworkBackend,
        public: PublicKeys,
        keys: PartyKeys,
        seed: int = 0,
    ) -> None:
        self.party = party
        self.network = network
        self.public = public
        self.keys = keys
        self.rng = random.Random((seed << 20) ^ (party + 1))
        # Signatures this server already accepted; its own, so that n
        # simulated servers in one process each pay for their checks.
        self.verified = VerifiedMemo()
        self.instances: dict[SessionId, Protocol] = {}
        self.outputs: dict[SessionId, object] = {}
        self._callbacks: dict[SessionId, list[Callable[[object], None]]] = {}
        self._buffered: dict[SessionId, list[tuple[int, object]]] = {}
        # Sessions spawned (or buffered) under each one: what close drops.
        self._children: dict[SessionId, dict[SessionId, None]] = {}

    # -- composition ---------------------------------------------------------

    def spawn(
        self,
        session: SessionId,
        protocol: Protocol,
        on_output: Callable[[object], None] | None = None,
        parent: SessionId | None = None,
    ) -> Protocol:
        """Register an instance and replay any buffered messages to it."""
        existing = self.instances.get(session)
        if existing is not None:
            if on_output is not None:
                self.subscribe(session, on_output)
            return existing
        self.instances[session] = protocol
        if parent is not None:
            self._children.setdefault(parent, {})[session] = None
        if on_output is not None:
            self.subscribe(session, on_output)
        ctx = Context(self, session)
        protocol.on_start(ctx)
        for sender, message in self._buffered.pop(session, []):
            protocol.on_message(ctx, sender, message)
        return protocol

    def close(self, session: SessionId, parent: SessionId | None = None) -> None:
        """Forget ``session`` and every session under it: instances,
        outputs, awaited callbacks and buffered traffic."""
        self._children.get(parent, {}).pop(session, None)
        doomed = [session]
        while doomed:
            gone = doomed.pop()
            for table in (self.instances, self.outputs, self._callbacks, self._buffered):
                table.pop(gone, None)
            doomed.extend(self._children.pop(gone, ()))

    def subscribe(self, session: SessionId, on_output: Callable[[object], None]) -> None:
        """Await a session's output without owning the instance."""
        if session in self.outputs:
            on_output(self.outputs[session])
            return
        self._callbacks.setdefault(session, []).append(on_output)

    def deliver_output(self, session: SessionId, value: object) -> None:
        """First output wins; later calls are ignored (idempotence)."""
        if session in self.outputs:
            return
        self.outputs[session] = value
        for callback in self._callbacks.pop(session, []):
            callback(value)

    def result(self, session: SessionId) -> object | None:
        return self.outputs.get(session)

    # -- node interface ----------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        # Byzantine parties may send arbitrary junk; discard anything
        # that is not a well-formed (session, message) pair.
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        session, message = payload
        if not (isinstance(session, tuple) and session):
            return
        try:
            instance = self.instances.get(session)
        except TypeError:
            return  # an unhashable id names no session
        if instance is None:
            if self._admitted(session):
                queue = self._buffered.setdefault(session, [])
                if len(queue) < _BUFFER_LIMIT:
                    queue.append((sender, message))
            return
        instance.on_message(Context(self, session), sender, message)

    def _admitted(self, session: SessionId) -> bool:
        """Whether traffic for ``session``, which nobody holds, may wait:
        the nearest live session its id names decides (none: it may), and
        the way down to it is recorded for :meth:`close`."""
        path = [session]
        while (named := _named(path[-1])) is not None:
            holder = self.instances.get(named)
            if holder is not None:
                if not holder.admits(Context(self, named), path[-1]):
                    return False
                chain = [named, *reversed(path)]
                for parent, child in zip(chain, chain[1:]):
                    self._children.setdefault(parent, {})[child] = None
                return True
            path.append(named)
        return True


def _named(session: SessionId) -> SessionId | None:
    """The session whose id ``session`` is built on: an element of it,
    or of a tuple in it (``("cbc", j, mvba)``, ``("mvba", (abc, r))``)."""
    for part in session[1:]:
        for inner in (part, *part) if isinstance(part, tuple) else ():
            if isinstance(inner, tuple) and inner and isinstance(inner[0], str):
                return inner
    return None
