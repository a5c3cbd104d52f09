"""The send/deliver contract every network backend satisfies.

The protocol stack (``core/``, ``smr/``) talks to the network through
exactly four things: ``send``, ``broadcast``, ``defer`` and the
``trace`` statistics object (a replica host also keeps one timer on it
and tells it of members that join or leave).  Both the deterministic simulator
(:class:`repro.net.simulator.Network`) and the asyncio TCP transport
(:class:`repro.net.transport.TransportNetwork`) satisfy this structural
interface, which is what lets replicas and clients run unmodified on
either backend.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .tracing import Trace

__all__ = ["NetworkBackend"]


class NetworkBackend(Protocol):
    """Structural interface of a network backend (simulator or TCP)."""

    trace: Trace

    @property
    def parties(self) -> list[int]:
        """Every known party id, sorted (used by broadcast-style
        behaviors, including the Byzantine attack chassis)."""
        ...

    def send(self, sender: int, recipient: int, payload: object) -> None:
        """Queue an authenticated point-to-point message."""
        ...

    def broadcast(self, sender: int, payload: object) -> None:
        """Send to every known *server*, including the sender itself.

        The paper's broadcasts are "to all servers": the recipients are
        the members of :attr:`parties` for which
        :func:`repro.crypto.dealer.is_server` holds — the servers this
        backend knows of (a joiner once admitted, a leaver until
        forgotten), never ``range(n)``.  A client is outside the group:
        it is reached by ``send`` alone and receives only what a server
        addresses to it.  Each recipient costs one ``send``.
        """
        ...

    def defer(self, party: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when ``party``'s current *turn* ends: once it
        has read what was already sent to it when the turn began.

        On TCP a turn is one event-loop iteration (``loop.call_soon``:
        after every frame the iteration dispatched); in the simulator it
        ends once every message the delivering sender had sent that
        party before the delivery began is delivered (docs/PROTOCOLS.md,
        "Opening a round").  Either way a turn never waits on traffic
        sent after it began, so under eventual delivery every turn ends.
        """
        ...

    def call_later(self, party: int, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` as ``party``'s ``delay`` seconds from now: by the
        event loop's clock on TCP, at a delivery count (or quiescence) in
        the simulator; a closed network's or replaced node's never runs."""
        ...

    def admit_peer(self, party: int, address: tuple[str, int] | None, channel_key: bytes) -> None:
        """Reach member ``party`` at ``address`` (``None``: the known one)."""
        ...

    def forget_peer(self, party: int) -> None:
        """Stop reaching ``party``, a member a reconfiguration retired."""
        ...
