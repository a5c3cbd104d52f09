"""Hybrid failure structures (Section 6, "Hybrid Failure Structures").

The paper: *"Another interesting direction is to treat crash failures
separately from corruptions ... After all, crashes are more likely to
occur than intrusions and they are much easier to handle than Byzantine
corruptions."*  This module implements that continuum (after Garay and
Perry [19]) for the threshold case: the adversary may corrupt up to
``b`` servers *byzantinely* and crash up to ``c`` further servers.

The admissibility condition generalizes ``n > 3t`` to

    n > 3b + 2c

and the quorum rules become (each reduces to the classical rule at
``c = 0``):

* **quorum** (was ``n - t``): wait for ``n - b - c`` parties — everyone
  else may be crashed or Byzantine, so waiting longer can deadlock;
* **strong quorum** (was ``2t + 1``): ``2b + c + 1`` parties — remove
  every possibly-faulty member and a non-corruptible set (``> b``)
  of live honest parties remains;
* **contains honest** (was ``t + 1``): ``b + 1`` parties — at least one
  member is not Byzantine (it may have crashed *after* sending, which
  is exactly as strong a guarantee as the classical rule gives);
* **secrecy** (coin/encryption shares): only Byzantine servers leak
  their shares, so the sharing threshold needs only ``b + 1`` — crashed
  servers keep their secrets.  This is why tolerating crashes is so
  much cheaper, the point of the Section 6 remark.

Because every protocol in :mod:`repro.core` is written against the
:class:`~repro.adversary.quorums.QuorumSystem` interface, the entire
stack runs under hybrid failures without modification — the fact this
module's tests demonstrate (e.g. n=9 with b=1, c=2: three faulty
servers, where the pure Byzantine bound caps at two faults of any
kind; or n=9 with b=0, c=4: four crashed servers).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .quorums import QuorumSystem

__all__ = ["HybridQuorumSystem"]


@dataclass(frozen=True)
class HybridQuorumSystem(QuorumSystem):
    """Threshold hybrid quorums: ``b`` Byzantine plus ``c`` crash faults."""

    n: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.b < 0 or self.c < 0:
            raise ValueError("fault budgets must be non-negative")
        if self.b + self.c >= self.n:
            raise ValueError("more faults than servers")

    @property
    def satisfies_q3(self) -> bool:
        """The hybrid admissibility condition ``n > 3b + 2c``."""
        return self.n > 3 * self.b + 2 * self.c

    # -- the generalized rules ------------------------------------------

    def can_be_corrupted(self, parties: Iterable[int]) -> bool:
        """Secrecy rule: only Byzantine servers reveal their shares."""
        return len(frozenset(parties)) <= self.b

    def is_quorum(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= self.n - self.b - self.c

    def is_strong_quorum(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= 2 * self.b + self.c + 1

    def contains_honest(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= self.b + 1

    def sample_quorum(self) -> frozenset[int]:
        return frozenset(range(self.n - self.b - self.c))

    def corruptible_within(self, parties: frozenset[int]) -> Iterable[frozenset[int]]:
        return map(frozenset, combinations(sorted(parties), min(self.b, len(parties))))

    # -- fault-injection accounting ----------------------------------------

    def admissible_faults(self, byzantine: Iterable[int], crashed: Iterable[int]) -> bool:
        """Check a concrete fault pattern against the budgets."""
        byz = frozenset(byzantine)
        crash = frozenset(crashed) - byz
        return len(byz) <= self.b and len(crash) <= self.c

    def describe(self) -> str:
        return f"hybrid(n={self.n}, byzantine<={self.b}, crash<={self.c})"
