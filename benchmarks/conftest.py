"""Benchmark fixtures: dealt systems and network builders.

Each benchmark regenerates one artifact of the paper (see DESIGN.md's
experiment index) and prints the reproduced table/series; run with

    pytest benchmarks/ --benchmark-only -s

to see the tables alongside pytest-benchmark's timing output.
"""

from __future__ import annotations

import pathlib
import random
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.adversary import (
    example1_access_formula,
    example1_structure,
    example2_access_formula,
    example2_structure,
)
from repro.core.runtime import ProtocolRuntime
from repro.crypto import deal_system, small_group
from repro.net.scheduler import RandomScheduler
from repro.net.simulator import Network

_DEALT_CACHE: dict = {}


def dealt(n: int, t: int | None = None, which: str | None = None, seed: int = 9000):
    """Session-cached dealt systems (dealing dominates setup time)."""
    key = (n, t, which, seed)
    if key not in _DEALT_CACHE:
        rng = random.Random(seed)
        if which == "example1":
            _DEALT_CACHE[key] = deal_system(
                9,
                rng,
                structure=example1_structure(),
                access_formula=example1_access_formula(),
                group=small_group(),
            )
        elif which == "example2":
            _DEALT_CACHE[key] = deal_system(
                16,
                rng,
                structure=example2_structure(),
                access_formula=example2_access_formula(),
                group=small_group(),
            )
        else:
            _DEALT_CACHE[key] = deal_system(n, rng, t=t, group=small_group())
    return _DEALT_CACHE[key]


def make_network(keys, scheduler=None, seed=0, parties=None):
    network = Network(scheduler or RandomScheduler(), random.Random(seed))
    runtimes = {}
    for party in parties if parties is not None else range(keys.public.n):
        runtime = ProtocolRuntime(
            party, network, keys.public, keys.private[party], seed=seed
        )
        network.attach(party, runtime)
        runtimes[party] = runtime
    return network, runtimes


@pytest.fixture(scope="session")
def report():
    """Collects printable result rows across benchmarks in one run."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n".join(lines))


def best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds (the best
    run is the least disturbed one)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def emit(title: str, rows: list[str]) -> None:
    """Print a reproduced table under a clear banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
    for row in rows:
        print(row)
