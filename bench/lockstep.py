"""A lock-step scheduler: the simulator's message-delay clock.

Everything pending when a generation starts is delivered before
anything sent during it, so the generation counter counts *message
delays* — the machine-independent latency unit of the synchronous
consensus literature.  Delivery inside a generation is in send order,
which makes a run a pure function of its inputs: message and byte
counts repeat exactly.

Uses only the public scheduler contract (``select`` over the pending
list, ``Envelope.seq``).  ``Network.send`` appends and ``Network.step``
pops the selected index, so ``pending`` stays sorted by ``seq`` and the
oldest envelope is always at index 0.
"""

from __future__ import annotations

from repro.net.scheduler import Scheduler

__all__ = ["LockStepScheduler"]


class LockStepScheduler(Scheduler):
    def __init__(self, capture: int = 0) -> None:
        self.generation = 0
        # Highest seq that belongs to the current generation.
        self._boundary = 0
        # The first ``capture`` delivered payloads, for the replay probes.
        self._capture = capture
        self.corpus: list[object] = []

    def select(self, pending, rng) -> int | None:
        if not pending:
            return None
        if pending[0].seq > self._boundary:
            self.generation += 1
            self._boundary = pending[-1].seq
        if len(self.corpus) < self._capture:
            self.corpus.append(pending[0].payload)
        return 0
