"""The load generator's view of one client identity.

:class:`LoadClient` is attached to the network in place of the
:class:`~repro.smr.client.ServiceClient` it wraps, so it sees the exact
delivery that completes a request: completion is timed there, not by
polling, and a closed loop refills its window from the same callback.
It works unchanged on the simulator and on the TCP transport.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.net.simulator import Node
from repro.smr.client import ServiceClient
from repro.smr.state_machine import Reply

__all__ = ["Completion", "LoadClient"]


@dataclass(frozen=True)
class Completion:
    """One committed request.  ``start`` is the submit time — in an open
    loop the time the request was *due*, so a stalled generator cannot
    hide queueing.  ``delays`` is the number of lock-step generations
    from submit to completion (0 on TCP, which has no such clock)."""

    operation: tuple
    result: object
    start: float
    end: float
    delays: int

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


class LoadClient(Node):
    def __init__(
        self,
        client: ServiceClient,
        generation: Callable[[], int] = lambda: 0,
    ) -> None:
        self.client = client
        self.generation = generation
        self.window = 0
        self.queue: deque[tuple] = deque()
        self.in_flight: dict[int, tuple[tuple, float, int]] = {}
        self.completions: list[Completion] = []
        # Highest nonce each replica has answered.  Replicas execute in
        # the agreed order, so one that answered a request has executed
        # everything ordered before it.
        self.answered: dict[int, int] = {}

    def on_message(self, sender: int, payload: object) -> None:
        before = len(self.client.completed)
        self.client.on_message(sender, payload)
        message = payload[1]
        if isinstance(message, Reply):
            self.answered[sender] = max(self.answered.get(sender, 0), message.nonce)
        if len(self.client.completed) != before:
            # One delivery completes at most one request: the reply
            # that made its result set honest-containing.
            self._complete(message.nonce)

    def answered_by_all(self, replicas: int) -> bool:
        """Every replica has answered this client's latest request."""
        latest = max(self.client.completed, default=0)
        return all(self.answered.get(party, 0) >= latest for party in range(replicas))

    def submit(self, operation: tuple, start: float | None = None) -> None:
        nonce = self.client.submit(operation)
        self.in_flight[nonce] = (
            operation,
            time.perf_counter() if start is None else start,
            self.generation(),
        )

    def run_closed(self, operations: list[tuple], window: int) -> None:
        """Closed loop: keep ``window`` requests in flight until
        ``operations`` are used up."""
        self.queue.extend(operations)
        self.window = window
        self._fill()

    @property
    def idle(self) -> bool:
        return not self.queue and not self.in_flight

    def _fill(self) -> None:
        while self.queue and len(self.in_flight) < self.window:
            self.submit(self.queue.popleft())

    def _complete(self, nonce: int) -> None:
        operation, start, generation = self.in_flight.pop(nonce)
        self.completions.append(
            Completion(
                operation=operation,
                result=self.client.completed[nonce].result,
                start=start,
                end=time.perf_counter(),
                delays=self.generation() - generation,
            )
        )
        self._fill()
