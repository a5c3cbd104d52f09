"""Generalized quorum rules (Section 4.2).

The agreement and broadcast protocols of Section 3 are written in terms
of three thresholds, which Section 4.2 generalizes to an arbitrary Q^3
adversary structure ``A`` with maximal sets ``A*``:

* where a set of ``n - t`` values is required, take all values in
  ``P \\ S`` for some ``S ∈ A*``;
* where ``2t + 1`` values are needed, take ``S ∪ T ∪ {i}`` for disjoint
  ``S, T ∈ A*`` and ``i ∉ S ∪ T``;
* where ``t + 1`` values are needed, take ``S ∪ {i}`` for ``S ∈ A*``
  and ``i ∉ S``.

Protocols do not build these sets explicitly; they test whether the set
of parties heard from so far *contains* one.  The semantic
characterizations used here are equivalent for monotone structures:

* ``is_quorum(R)``          — ``P \\ R`` is corruptible (n-t rule);
* ``is_strong_quorum(R)``   — removing any corruptible set from ``R``
  leaves a non-corruptible set (2t+1 rule: the honest members of ``R``
  are enough to convince everyone);
* ``contains_honest(R)``    — ``R`` is not corruptible (t+1 rule: at
  least one member is guaranteed honest).

Under Q^3 these nest: quorum ⟹ strong quorum ⟹ contains honest, and
any two quorums intersect in a non-corruptible set — the facts the
protocol proofs rely on.

:class:`ThresholdQuorumSystem` implements the classical case with O(1)
checks; :class:`GeneralQuorumSystem` works for any structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .formulas import Formula
from .structures import AdversaryStructure, threshold_structure

__all__ = [
    "QuorumSystem",
    "ThresholdQuorumSystem",
    "GeneralQuorumSystem",
    "quorum_system_for",
    "access_formula_compatible",
]


class QuorumSystem:
    """Interface the broadcast/agreement protocols are written against."""

    n: int

    def can_be_corrupted(self, parties: Iterable[int]) -> bool:
        """True iff the coalition lies in the adversary structure."""
        raise NotImplementedError

    def is_quorum(self, parties: Iterable[int]) -> bool:
        """Generalized ``>= n - t``: everyone outside may be corrupted."""
        raise NotImplementedError

    def is_strong_quorum(self, parties: Iterable[int]) -> bool:
        """Generalized ``>= 2t + 1``: honest members form a non-corruptible set."""
        raise NotImplementedError

    def contains_honest(self, parties: Iterable[int]) -> bool:
        """Generalized ``>= t + 1``: at least one member is honest."""
        raise NotImplementedError

    def sample_quorum(self) -> frozenset[int]:
        """Some quorum (used by clients to pick how many servers to contact)."""
        raise NotImplementedError

    def corruptible_within(self, parties: frozenset[int]) -> Iterable[frozenset[int]]:
        """The largest corruptible subsets of ``parties`` (every corruptible
        subset lies in one of them)."""
        raise NotImplementedError

    def is_robust(
        self, parties: Iterable[int], qualified: Callable[[frozenset[int]], bool]
    ) -> bool:
        """Whether removing any corruptible set from ``parties`` still
        leaves a set ``qualified`` accepts: the honest members alone are
        qualified, whoever lies (docs/PROTOCOLS.md, "Shares")."""
        present = frozenset(parties)
        return all(
            qualified(present - corrupt) for corrupt in self.corruptible_within(present)
        )

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ThresholdQuorumSystem(QuorumSystem):
    """The classical ``t``-threshold quorums with constant-time checks."""

    n: int
    t: int

    def __post_init__(self) -> None:
        if not 0 <= self.t < self.n:
            raise ValueError(f"invalid threshold t={self.t} for n={self.n}")

    @property
    def satisfies_q3(self) -> bool:
        return self.n > 3 * self.t

    def can_be_corrupted(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) <= self.t

    def is_quorum(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= self.n - self.t

    def is_strong_quorum(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= 2 * self.t + 1

    def contains_honest(self, parties: Iterable[int]) -> bool:
        return len(frozenset(parties)) >= self.t + 1

    def sample_quorum(self) -> frozenset[int]:
        return frozenset(range(self.n - self.t))

    def corruptible_within(self, parties: frozenset[int]) -> Iterable[frozenset[int]]:
        return map(frozenset, combinations(sorted(parties), min(self.t, len(parties))))

    def to_structure(self) -> AdversaryStructure:
        return threshold_structure(self.n, self.t)

    def describe(self) -> str:
        return f"threshold(n={self.n}, t={self.t})"


@dataclass(frozen=True)
class GeneralQuorumSystem(QuorumSystem):
    """Quorums for an arbitrary monotone adversary structure."""

    structure: AdversaryStructure

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.structure.n

    @property
    def satisfies_q3(self) -> bool:
        return self.structure.satisfies_q3()

    def can_be_corrupted(self, parties: Iterable[int]) -> bool:
        return self.structure.is_corruptible(parties)

    def is_quorum(self, parties: Iterable[int]) -> bool:
        rest = self.structure.all_parties - frozenset(parties)
        return self.structure.is_corruptible(rest)

    def is_strong_quorum(self, parties: Iterable[int]) -> bool:
        present = frozenset(parties)
        if not present <= self.structure.all_parties:
            return False
        return all(
            not self.structure.is_corruptible(present - corrupt)
            for corrupt in self.structure.maximal_sets
        )

    def contains_honest(self, parties: Iterable[int]) -> bool:
        return not self.structure.is_corruptible(parties)

    def sample_quorum(self) -> frozenset[int]:
        biggest = max(self.structure.maximal_sets, key=len, default=frozenset())
        return self.structure.all_parties - biggest

    def corruptible_within(self, parties: frozenset[int]) -> Iterable[frozenset[int]]:
        return (parties & corrupt for corrupt in self.structure.maximal_sets)

    def describe(self) -> str:
        return f"general({self.structure.describe()})"


def quorum_system_for(
    n: int, t: int | None = None, structure: AdversaryStructure | None = None
) -> QuorumSystem:
    """Build a quorum system from either a threshold or a structure."""
    if (t is None) == (structure is None):
        raise ValueError("specify exactly one of t or structure")
    if t is not None:
        return ThresholdQuorumSystem(n=n, t=t)
    assert structure is not None
    if structure.n != n:
        raise ValueError("structure size does not match n")
    return GeneralQuorumSystem(structure=structure)


def access_formula_compatible(structure: AdversaryStructure, access: Formula) -> bool:
    """Check that an access formula can serve structure ``A`` for sharing.

    Two conditions (Section 4.2):

    1. *Safety*: no corruptible coalition is qualified — it suffices to
       check the maximal sets of ``A``.
    2. *Liveness*: the complement of every maximal corruptible set is
       qualified, so the honest parties can always reconstruct.

    The formula need not be the exact complement of ``A``: in the
    paper's Example 2, the natural sharing formula is strictly coarser
    than the complement (whose structure would even violate Q^3).
    """
    everyone = structure.all_parties
    for s in structure.maximal_sets:
        if access.evaluate(s):
            return False
        if not access.evaluate(everyone - s):
            return False
    return True
