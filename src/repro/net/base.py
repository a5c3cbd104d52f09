"""The send/deliver contract every network backend satisfies.

The protocol stack (``core/``, ``smr/``) talks to the network through
exactly three things: ``send``, ``broadcast`` and the ``trace``
statistics object.  Both the deterministic simulator
(:class:`repro.net.simulator.Network`) and the asyncio TCP transport
(:class:`repro.net.transport.TransportNetwork`) satisfy this structural
interface, which is what lets replicas and clients run unmodified on
either backend.
"""

from __future__ import annotations

from typing import Protocol

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
