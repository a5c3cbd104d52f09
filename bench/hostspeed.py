"""How fast the host is right now, so that times can be stated for a
reference machine instead of for whatever the neighbours leave over.

The reference box is a two-vCPU guest on a shared host whose speed
wanders: a fixed piece of single-threaded work (the :func:`kernel`
below) took between 0.98 and 1.95 ms of *CPU time* within a quarter of
an hour with nothing else running, in phases of a minute or two, none
of it reported as steal.  Ten identical runs of a workload then spread
(interquartile range over median) by 17 to 34 % in every timed metric —
more than the 25 % the largest permitted regression bound allows — and
by under 6 % (simulator) and 8 to 16 % (TCP) once each duration is
divided by the kernel's median time over the same interval.  So that is
what the benchmark reports: a
duration measured in ``[t0, t1]`` divided by ``factor(t0, t1)`` is the
duration on a host where the kernel takes :data:`REFERENCE_NS` — this
box, when it is quiet.

The kernel has to run where the work runs.  The two vCPUs are slowed
independently: sampled from a second process, the factor made the
single-threaded simulator workloads *less* steady than leaving them
alone (28 % against 19 %), sampled between deliveries on the same
thread it brought them to under 6 %.  So :class:`HostSpeed` is sampled by the
code being timed — the simulator's delivery loop, an asyncio task next
to the TCP clients — every 50 ms (2–3 % of one core), and what the
sampling itself cost is known and subtracted.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import statistics
import time

__all__ = ["REFERENCE_NS", "HostSpeed", "kernel"]

REFERENCE_NS = 1_200_000
INTERVAL_S = 0.05
# A factor is the median of at least this many samples; an interval too
# short to hold them borrows from its neighbourhood.
MIN_SAMPLES = 9

_P = 92100994902829264263416118156988489682240185770887138762239302878959306994279
_E = 46050497451414632131708059078494244841120092885443569381119651439479653497139


def kernel() -> int:
    """CPU nanoseconds for a fixed mix of what the system under test
    does: 256-bit modular exponentiation, interpreter dispatch, SHA-256."""
    started = time.process_time_ns()
    x = 3
    for _ in range(40):
        x = pow(x, _E, _P)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    hashlib.sha256(bytes(100000)).digest()
    return time.process_time_ns() - started


class HostSpeed:
    """Kernel timings taken by whoever is being timed."""

    def __init__(self) -> None:
        # (time.monotonic() — the clock perf_counter shares on Linux —, kernel ns)
        self.samples: list[tuple[float, int]] = []
        self._next = 0.0

    def sample(self) -> None:
        self.samples.append((time.monotonic(), kernel()))
        self._next = time.monotonic() + INTERVAL_S

    def tick(self) -> None:
        """Take a sample if one is due; cheap enough for a hot loop."""
        if time.monotonic() >= self._next:
            self.sample()

    async def run(self) -> None:
        """Sample until cancelled, beside whatever else the loop runs."""
        while True:
            self.tick()
            await asyncio.sleep(INTERVAL_S)

    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        times = [t for t, _ in self.samples]
        return bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness over ``[t0, t1]``: 1.0 is the quiet reference
        box, 1.5 a host on which everything takes half as long again."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        low, high = self._between(t0, t1)
        missing = MIN_SAMPLES - (high - low)
        if missing > 0:
            low, high = max(0, low - missing), min(len(self.samples), high + missing)
        return statistics.median(ns for _, ns in self.samples[low:high]) / REFERENCE_NS

    def spent_s(self, t0: float, t1: float) -> float:
        """CPU seconds the sampling itself took in ``[t0, t1]``."""
        low, high = self._between(t0, t1)
        return sum(ns for _, ns in self.samples[low:high]) / 1e9
