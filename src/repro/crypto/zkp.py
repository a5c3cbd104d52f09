"""Non-interactive zero-knowledge proofs of discrete-log relations.

Robustness of every threshold scheme in the architecture rests on each
party proving that its share is valid:

* the coin-tossing scheme of [8] attaches a Chaum-Pedersen proof of
  discrete-log equality (DLEQ) to every coin share;
* the TDH2 cryptosystem [36] uses DLEQ proofs on decryption shares and a
  related proof on ciphertexts;
* plain Schnorr proofs of knowledge authenticate public keys.

All proofs are made non-interactive with the Fiat-Shamir transform in
the random oracle model, which is exactly the proof methodology the
paper adopts.

Proofs carry their *commitments* ``(a₁, a₂, z)`` rather than the
``(c, z)`` compression: the verifier recomputes the challenge by
hashing and checks the defining equations ``g^z = a₁·h₁^c`` directly.
This form is what makes **batch verification** possible — the equations
of a whole quorum of shares collapse into one simultaneous
multi-exponentiation via a small-exponent random linear combination
(``verify_dleq_batch``), with soundness error 2^-64; the compressed
form would force recomputing every commitment individually before
hashing, which is exactly the per-share cost batching removes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from ..codec import register
from .accel import accel_for, batch_coefficients, verify_product_equations
from .groups import SchnorrGroup
from .hashing import hash_to_challenge
from .schnorr import VerifiedMemo

T = TypeVar("T")

__all__ = [
    "DleqProof",
    "prove_dleq",
    "verify_dleq",
    "verify_dleq_batch",
    "verify_dleq_shares",
    "SchnorrProof",
    "prove_dlog",
    "verify_dlog",
]


@register
@dataclass(frozen=True)
class DleqProof:
    """Proof that log_g(h1) == log_u(h2) for public (g, h1, u, h2).

    ``commit1 = g^w``, ``commit2 = u^w`` and ``response = w + c·x`` with
    the challenge ``c`` recomputed by the verifier from the transcript.
    """

    commit1: int
    commit2: int
    response: int


def _dleq_challenge(
    group: SchnorrGroup, g: int, h1: int, u: int, h2: int,
    a1: int, a2: int, context: object,
) -> int:
    return hash_to_challenge(group, "dleq", g, h1, u, h2, a1, a2, context)


def prove_dleq(
    group: SchnorrGroup,
    g: int,
    u: int,
    secret: int,
    rng: random.Random,
    context: object = None,
    images: tuple[int, int] | None = None,
    memo: VerifiedMemo | None = None,
) -> DleqProof:
    """Prove knowledge of ``x`` with ``h1 = g^x`` and ``h2 = u^x``.

    ``context`` is bound into the Fiat-Shamir challenge to prevent proof
    replay across protocol sessions (e.g. the coin name or ciphertext).
    A caller that already holds ``images = (h1, h2)`` — the share value
    it just computed, ``g^x`` cached from its *own* key — hands them in
    instead of paying for both again.  The proving party's ``memo``
    learns the check the proof passes by construction.
    """
    h1, h2 = images or (group.exp(g, secret), group.exp(u, secret))
    w = group.random_exponent(rng)
    a1 = group.exp(g, w)
    a2 = group.exp(u, w)
    c = _dleq_challenge(group, g, h1, u, h2, a1, a2, context)
    z = (w + c * secret) % group.q
    if memo is not None:
        memo.add(memo.digest(group.p, g, h1, u, h2, a1, a2, z, c))
    return DleqProof(commit1=a1, commit2=a2, response=z)


def _dleq_well_formed(group: SchnorrGroup, proof: DleqProof) -> bool:
    if not isinstance(proof, DleqProof):
        return False
    return (
        isinstance(proof.commit1, int)
        and isinstance(proof.commit2, int)
        and isinstance(proof.response, int)
        and 0 < proof.commit1 < group.p
        and 0 < proof.commit2 < group.p
        and 0 <= proof.response < group.q
    )


def verify_dleq(
    group: SchnorrGroup,
    g: int,
    h1: int,
    u: int,
    h2: int,
    proof: DleqProof,
    context: object = None,
) -> bool:
    """Verify a DLEQ proof; returns False on any malformed input."""
    accel = accel_for(group)
    if not all(accel.is_member(x) for x in (g, h1, u, h2)):
        return False
    if not _dleq_well_formed(group, proof):
        return False
    a1, a2, z = proof.commit1, proof.commit2, proof.response
    c = _dleq_challenge(group, g, h1, u, h2, a1, a2, context)
    p = group.p
    if accel.exp(g, z) != a1 * accel.exp(h1, c) % p:
        return False
    return accel.exp(u, z) == a2 * accel.exp(h2, c) % p


def verify_dleq_batch(
    group: SchnorrGroup,
    items: Sequence[tuple[int, int, int, int, DleqProof, object]],
    memo: VerifiedMemo | None = None,
) -> bool:
    """Batch-verify DLEQ proofs: ``items`` of ``(g, h1, u, h2, proof, context)``.

    One simultaneous multi-exponentiation checks the whole batch via a
    small-exponent (64-bit) random linear combination; coefficients are
    Fiat-Shamir-derived from the full transcript, so the check is
    deterministic and sound in the random-oracle model (error 2^-64 —
    see docs/PERFORMANCE.md).  The verdict agrees with running
    :func:`verify_dleq` on every item, up to that soundness error;
    callers that need to pinpoint a culprit in a failing batch fall
    back to per-item verification.

    Checks the verifying party's ``memo`` already passed (or seeded when
    it made the proof) drop out of the batch after the membership and
    well-formedness checks; the rest are remembered only if the batch
    passes.  An empty batch or remainder is vacuously valid.
    """
    accel = accel_for(group)
    equations = []
    transcript: list[object] = [group.p, group.g]
    checks: list[bytes] = []
    for g, h1, u, h2, proof, context in items:
        if not all(accel.is_member(x) for x in (g, h1, u, h2)):
            return False
        if not _dleq_well_formed(group, proof):
            return False
        a1, a2, z = proof.commit1, proof.commit2, proof.response
        c = _dleq_challenge(group, g, h1, u, h2, a1, a2, context)
        if memo is not None:
            check = memo.digest(group.p, g, h1, u, h2, a1, a2, z, c)
            if check in memo:
                continue
            checks.append(check)
        # Commitments must be members too: the exact per-item equation
        # forces this implicitly, the weighted product does not.
        if not (accel.is_member(a1) and accel.is_member(a2)):
            return False
        equations.append((((g, z),), ((a1, 1), (h1, c))))
        equations.append((((u, z),), ((a2, 1), (h2, c))))
        transcript.extend((g, h1, u, h2, a1, a2, z, c))
    if not equations:
        return True
    coefficients = batch_coefficients("dleq-batch", transcript, len(equations))
    if not verify_product_equations(
        group.p, equations, coefficients, order=group.q, accel=accel
    ):
        return False
    for check in checks:  # empty without a memo
        memo.add(check)
    return True


def verify_dleq_shares(
    group: SchnorrGroup,
    candidates: Mapping[int, tuple[T, Sequence[tuple]]],
    memo: VerifiedMemo | None = None,
) -> dict[int, T]:
    """The valid shares among ``party -> (share, its DLEQ batch items)``.

    One :func:`verify_dleq_batch` over the whole set; if it fails (at
    least one forged share) each share is re-verified on its own, so the
    result is exactly what per-share :func:`verify_dleq` accepts.
    """
    batch = [item for _, items in candidates.values() for item in items]
    if verify_dleq_batch(group, batch, memo):
        return {party: share for party, (share, _) in candidates.items()}
    return {
        party: share
        for party, (share, items) in candidates.items()
        if all(
            verify_dleq(group, g, h1, u, h2, proof, context=ctx)
            for g, h1, u, h2, proof, ctx in items
        )
    }


@register
@dataclass(frozen=True)
class SchnorrProof:
    """Proof of knowledge of ``x`` with ``h = g^x`` (Fiat-Shamir Schnorr)."""

    commit: int
    response: int


def prove_dlog(
    group: SchnorrGroup,
    secret: int,
    rng: random.Random,
    context: object = None,
) -> SchnorrProof:
    h = group.power_of_g(secret)
    w = group.random_exponent(rng)
    a = group.power_of_g(w)
    c = hash_to_challenge(group, "dlog", group.g, h, a, context)
    z = (w + c * secret) % group.q
    return SchnorrProof(commit=a, response=z)


def verify_dlog(
    group: SchnorrGroup,
    h: int,
    proof: SchnorrProof,
    context: object = None,
) -> bool:
    accel = accel_for(group)
    if not accel.is_member(h):
        return False
    if not isinstance(proof, SchnorrProof):
        return False
    a, z = proof.commit, proof.response
    if not (isinstance(a, int) and isinstance(z, int)):
        return False
    if not (0 < a < group.p and 0 <= z < group.q):
        return False
    c = hash_to_challenge(group, "dlog", group.g, h, a, context)
    return accel.exp(group.g, z) == a * accel.exp(h, c) % group.p
