"""Order statistics that refuse to report what the sample cannot support."""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "tail"]

# A percentile is only reported when at least this many samples lie
# beyond it; with fewer the value is one outlier, not a distribution.
MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """The ``pct``-th percentile (nearest rank), or ``ValueError`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile {pct} out of range")
    ordered = sorted(values)
    beyond = int(len(ordered) * (100 - pct) / 100)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} samples "
            f"beyond it; {MIN_BEYOND} are required"
        )
    return ordered[math.ceil(len(ordered) * pct / 100) - 1]  # nearest rank


def tail(values: list[float], ladder: tuple[float, ...] = (99, 95, 90, 75)) -> tuple[float, float]:
    """``(pct, value)`` for the highest percentile of ``ladder`` the
    sample supports; ``(50, median)`` when it supports none."""
    for pct in ladder:
        try:
            return pct, percentile(values, pct)
        except ValueError:
            continue
    return 50.0, statistics.median(values)
