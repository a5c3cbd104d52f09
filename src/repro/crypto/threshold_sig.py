"""Threshold signatures.

Two realizations (see the substitution table in DESIGN.md), each named
where it is used — no common type: parties are 1-based in the first,
0-based in the second, whose share is a ``(party, signature)`` pair:

* :class:`ShoupRsaScheme` — the practical threshold signature scheme of
  Shoup [35] that the paper cites: non-interactive, robust (every
  signature share carries a proof of correctness), combinable into a
  single constant-size RSA signature.  It inherently realizes a
  ``k``-out-of-``n`` threshold; the experiments E8 and E12 measure it
  against certificates.

* :class:`QuorumCertScheme` — a certificate of individual Schnorr
  signatures from a qualified set of an arbitrary access structure.
  CKS [8] note their agreement protocol stays correct when threshold
  signatures are replaced by sets of ordinary signatures (messages just
  grow); this realization is what makes the Section 4 *generalized
  adversary structures* work end-to-end, where no threshold signature
  scheme exists, and the one the service signs with (crypto/dealer.py).

Both offer the same verbs — ``sign_share``, ``verify_share``,
``combine``, ``verify``, the operations the broadcast/agreement layer
uses — plus ``verify_shares`` batching a whole quorum's share proofs
into one simultaneous multi-exponentiation (docs/PERFORMANCE.md).

Shoup share proofs are carried in commitment form ``(v', x', z)`` with
the challenge recomputed by hashing, which is what makes them
batchable.  All correctness equations are compared *squared*: the RSA
group has hidden order and no efficient membership test for the
squares, so verification works in the quotient ``Z_N^* / {±1}`` — sound
for this scheme because combination only ever uses even powers of the
share values (``x_i^{2λ}``), making a sign flip information-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from ..codec import register
from .accel import batch_coefficients, verify_product_equations
from .hashing import Encoded, encode, hash_to_int
from .lsss import LsssScheme, threshold_scheme
from .numtheory import egcd, modinv
from .rsa import RsaModulus, choose_public_exponent, generate_rsa_modulus
from .schnorr import Signature as SchnorrSignature
from .schnorr import SigningKey, VerifiedMemo, VerifyKey, verify_batch

__all__ = [
    "ShoupRsaScheme",
    "ShoupRsaShareholder",
    "RsaSignatureShare",
    "RsaSignature",
    "QuorumCertScheme",
    "QuorumCertShareholder",
    "QuorumCertificate",
    "deal_shoup_rsa",
    "deal_quorum_certs",
]


# ===========================================================================
# Shoup's RSA threshold signatures
# ===========================================================================


@register
@dataclass(frozen=True)
class RsaSignatureShare:
    """``x_i = H(M)^{2Δ s_i}`` with a Fiat-Shamir proof of correctness.

    The proof is the commitment pair ``(v' = v^r, x' = x̃^r)`` plus the
    response ``z = s_i·c + r``; the challenge ``c`` is recomputed by the
    verifier from the hashed transcript.
    """

    party: int
    value: int
    commit_v: int
    commit_x: int
    response: int


@register
@dataclass(frozen=True)
class RsaSignature:
    """An ordinary RSA signature ``y`` with ``y^e = H(M) mod N``."""

    value: int


@dataclass(frozen=True)
class ShoupRsaScheme:
    """Public side of Shoup's scheme: verify shares, combine, verify.

    Attributes:
        n_parties: number of shareholders.
        k: shares needed to combine (``t + 1`` in the paper's usage).
        n_modulus: the RSA modulus ``N``.
        e: public verification exponent (prime ``> n_parties``).
        v: verification base, a generator of the squares mod ``N``.
        v_keys: ``v_i = v^{s_i}`` per party.
    """

    n_parties: int
    k: int
    n_modulus: int
    e: int
    v: int
    v_keys: dict[int, int]

    @cached_property
    def _sharing(self) -> LsssScheme:
        """The ``k``-out-of-``n`` LSSS whose point ``i`` is party ``i``
        (its leaf ``i - 1``): only its integer recombination is used, so
        the modulus plays no part."""
        return threshold_scheme(self.n_parties, self.k - 1, self.n_modulus)

    @cached_property
    def delta(self) -> int:
        """Δ = n! — clears all Lagrange denominators over the integers."""
        return self._sharing.delta

    # Adversarial responses larger than any honest one are rejected
    # outright (and keep batch exponents bounded): z = s·c + r with
    # s < N, c < 2^128, r < 2^(|N| + 256).
    @cached_property
    def _max_response_bits(self) -> int:
        return self.n_modulus.bit_length() + 2 * 128 + 2

    def message_digest(self, message: object) -> int:
        """Hash the message into Z_N (the full-domain hash H of [35])."""
        x = hash_to_int("shoup-fdh", message, bits=self.n_modulus.bit_length() + 64)
        x %= self.n_modulus
        return x if x > 1 else x + 2

    def _share_challenge(
        self, x_tilde: int, vi: int, xi_sq: int, v_prime: int, x_prime: int
    ) -> int:
        return hash_to_int(
            "shoup-share-proof",
            self.v, x_tilde, vi, xi_sq, v_prime, x_prime,
            bits=128,
        )

    def _share_well_formed(self, share: RsaSignatureShare) -> bool:
        if share.party not in self.v_keys:
            return False
        N = self.n_modulus
        return (
            0 < share.value < N
            and 0 < share.commit_v < N
            and 0 < share.commit_x < N
            and 0 <= share.response
            and share.response.bit_length() <= self._max_response_bits
        )

    def verify_share(self, message: object, share: RsaSignatureShare) -> bool:
        if not self._share_well_formed(share):
            return False
        N = self.n_modulus
        x = self.message_digest(message)
        x_tilde = pow(x, 4 * self.delta, N)
        xi_sq = pow(share.value, 2, N)
        vi = self.v_keys[share.party]
        c = self._share_challenge(x_tilde, vi, xi_sq, share.commit_v, share.commit_x)
        z = share.response
        # v^z = v'·v_i^c and x̃^z = x'·x_i^{2c}, compared squared (the
        # quotient by {±1}; see the module docstring).
        lhs_v = pow(self.v, z, N)
        rhs_v = share.commit_v * pow(vi, c, N) % N
        if pow(lhs_v, 2, N) != pow(rhs_v, 2, N):
            return False
        lhs_x = pow(x_tilde, z, N)
        rhs_x = share.commit_x * pow(xi_sq, c, N) % N
        return pow(lhs_x, 2, N) == pow(rhs_x, 2, N)

    def verify_shares(
        self, message: object, shares: Iterable[RsaSignatureShare]
    ) -> dict[int, RsaSignatureShare]:
        """Batch-verify signature shares; returns the valid ones by party.

        All share proofs collapse into one product equation over ``Z_N``
        via a small-exponent random linear combination (the exponents
        cannot be reduced — the group order is hidden — but the common
        bases ``v`` and ``x̃`` are merged, so the batch costs two big
        exponentiations plus short ones per share instead of four big
        ones per share).  On batch failure every share is re-checked
        individually to pinpoint culprits; the verdict equals per-share
        :meth:`verify_share` up to soundness error 2^-64.
        """
        N = self.n_modulus
        x = self.message_digest(message)
        x_tilde = pow(x, 4 * self.delta, N)
        candidates: dict[int, RsaSignatureShare] = {}
        equations = []
        transcript: list[object] = [N, self.v, x_tilde]
        for share in shares:
            if share.party in candidates or not self._share_well_formed(share):
                continue
            candidates[share.party] = share
            vi = self.v_keys[share.party]
            xi_sq = pow(share.value, 2, N)
            c = self._share_challenge(
                x_tilde, vi, xi_sq, share.commit_v, share.commit_x
            )
            z = share.response
            equations.append((((self.v, z),), ((share.commit_v, 1), (vi, c))))
            equations.append((((x_tilde, z),), ((share.commit_x, 1), (xi_sq, c))))
            transcript.extend((share.party, share.value, share.commit_v,
                               share.commit_x, z, c))
        coefficients = batch_coefficients("shoup-batch", transcript, len(equations))
        if verify_product_equations(N, equations, coefficients, square=True):
            return candidates
        return {
            party: share
            for party, share in candidates.items()
            if self.verify_share(message, share)
        }

    def combine(self, message: object, shares: dict[int, RsaSignatureShare]) -> RsaSignature:
        """Combine ``k`` valid shares into a standard RSA signature."""
        if len(shares) < self.k:
            raise ValueError(f"need {self.k} shares, got {len(shares)}")
        chosen = dict(sorted(shares.items())[: self.k])
        N = self.n_modulus
        x = self.message_digest(message)
        # λ^S_{0,i} = Δ · Π_{j≠i} j / (j - i), an integer by design.
        mu = self._sharing.integer_recombination({i - 1 for i in chosen})
        assert mu is not None
        w = 1
        for slot, lam in mu.items():
            value = chosen[self._sharing.slot_owner(slot) + 1].value
            exponent = 2 * lam
            if exponent >= 0:
                w = (w * pow(value, exponent, N)) % N
            else:
                w = (w * modinv(pow(value, -exponent, N), N)) % N
        # w^e = x^{4Δ²}; since gcd(e, 4Δ²) = 1 extract y with y^e = x.
        g, a, b = egcd(self.e, 4 * self.delta * self.delta)
        if g != 1:
            raise ArithmeticError("e not coprime to 4Δ² — invalid parameters")
        y = (pow(x, a, N) if a >= 0 else modinv(pow(x, -a, N), N)) * (
            pow(w, b, N) if b >= 0 else modinv(pow(w, -b, N), N)
        ) % N
        signature = RsaSignature(value=y)
        if not self.verify(message, signature):
            raise ValueError("combined signature failed verification (bad shares?)")
        return signature

    def verify(self, message: object, signature: RsaSignature) -> bool:
        if not 0 < signature.value < self.n_modulus:
            return False
        return pow(signature.value, self.e, self.n_modulus) == self.message_digest(message)


@dataclass(frozen=True)
class ShoupRsaShareholder:
    """A party's secret signing share ``s_i`` of the RSA exponent."""

    party: int
    public: ShoupRsaScheme
    s: int

    def sign_share(self, message: object, rng: random.Random) -> RsaSignatureShare:
        pub = self.public
        N = pub.n_modulus
        x = pub.message_digest(message)
        x_tilde = pow(x, 4 * pub.delta, N)
        value = pow(x, 2 * pub.delta * self.s, N)
        # Fiat-Shamir proof of dlog equality over the hidden-order group:
        # the nonce range follows Shoup's L(N) + 2·L1 bound.
        bound = 1 << (N.bit_length() + 2 * 128)
        r = rng.randrange(bound)
        v_prime = pow(pub.v, r, N)
        x_prime = pow(x_tilde, r, N)
        vi = pub.v_keys[self.party]
        xi_sq = pow(value, 2, N)
        c = pub._share_challenge(x_tilde, vi, xi_sq, v_prime, x_prime)
        z = self.s * c + r
        return RsaSignatureShare(
            party=self.party,
            value=value,
            commit_v=v_prime,
            commit_x=x_prime,
            response=z,
        )


def deal_shoup_rsa(
    n: int,
    k: int,
    rng: random.Random,
    bits: int = 512,
    modulus: RsaModulus | None = None,
) -> tuple[ShoupRsaScheme, dict[int, ShoupRsaShareholder]]:
    """Dealer setup: generate keys and Shamir-share ``d`` over ``Z_m``.

    Parties are indexed ``1..n`` internally (Shamir points must be
    nonzero); the caller's 0-based party ``i`` holds point ``i + 1``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"invalid k={k} for n={n}")
    mod = modulus or generate_rsa_modulus(bits, rng)
    N, m = mod.n_modulus, mod.m
    e = choose_public_exponent(mod, n)
    d = modinv(e, m)
    # Shamir over Z_m with threshold k-1 (k shares reconstruct).
    coeffs = [d] + [rng.randrange(m) for _ in range(k - 1)]
    s_values = {}
    for i in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * i + c) % m
        s_values[i] = acc
    # Verification base: a random square generates QR_N w.h.p.
    v = pow(rng.randrange(2, N - 1), 2, N)
    v_keys = {i: pow(v, s_values[i], N) for i in s_values}
    public = ShoupRsaScheme(n_parties=n, k=k, n_modulus=N, e=e, v=v, v_keys=v_keys)
    holders = {
        i: ShoupRsaShareholder(party=i, public=public, s=s_values[i]) for i in s_values
    }
    return public, holders


# ===========================================================================
# Quorum certificates (threshold signatures for general adversary structures)
# ===========================================================================


@register
@dataclass(frozen=True)
class QuorumCertificate:
    """A set of individual signatures from a qualified set of parties."""

    signatures: dict[int, SchnorrSignature]

    @property
    def signers(self) -> frozenset[int]:
        return frozenset(self.signatures)


@dataclass(frozen=True)
class QuorumCertScheme:
    """Signature certificates qualified by an arbitrary predicate.

    ``qualifier`` decides which signer sets are sufficient — e.g. the
    generalized ``n - t`` rule (``QuorumSystem.is_quorum``) for the
    justifications inside Byzantine agreement, or ``contains_honest``
    for ``t + 1``-style evidence.
    """

    verify_keys: dict[int, VerifyKey]
    qualifier: Callable[[frozenset[int]], bool]
    tag: str = "quorum-cert"

    # Every check takes the verifying party's ``memo`` (see
    # :class:`~repro.crypto.schnorr.VerifiedMemo`): a share accepted on
    # arrival costs no arithmetic when the certificate is combined, nor
    # does the certificate in each later message that carries it.
    # Every ``message`` below may also be given as its :meth:`statement`,
    # so that a holder that checks many signatures on one message (a
    # broadcast's sender, its echo shares) encodes it once.

    def statement(self, message: object) -> Encoded:
        """What shareholders sign, encoded once for all its signatures."""
        if type(message) is Encoded:
            return message  # already one: an Encoded is never a message
        return Encoded(encode((self.tag, message)))

    def _share_ok(
        self,
        statement: Encoded,
        party: int,
        signature: SchnorrSignature,
        memo: VerifiedMemo | None,
    ) -> bool:
        key = self.verify_keys.get(party)
        return key is not None and key.verify(statement, signature, memo)

    def _qualified(self, certificate: object) -> bool:
        """A certificate (admitted: its signers are integers) signed by a qualified set."""
        return isinstance(certificate, QuorumCertificate) and self.qualifier(certificate.signers)

    def verify_share(
        self,
        message: object,
        share: tuple[int, SchnorrSignature],
        memo: VerifiedMemo | None = None,
    ) -> bool:
        party, signature = share
        return self._share_ok(self.statement(message), party, signature, memo)

    def _batch_ok(
        self,
        claims: Iterable[tuple[Encoded, Mapping[int, SchnorrSignature]]],
        memo: VerifiedMemo | None,
    ) -> bool:
        """One multi-exp over every claim's signatures (soundness error 2^-64)."""
        items = []
        for statement, signatures in claims:
            for party, signature in sorted(signatures.items()):
                key = self.verify_keys.get(party)
                if key is None:
                    return False
                items.append((key, statement, signature))
        if not items:
            return True
        return verify_batch(items[0][0].group, items, memo)

    def verify_shares(
        self,
        message: object,
        shares: Mapping[int, SchnorrSignature],
        memo: VerifiedMemo | None = None,
    ) -> dict[int, SchnorrSignature]:
        """Batch-verify signature shares; returns the valid ones by party.

        Falls back to per-share verification when the batch fails so
        culprits are pinpointed exactly (docs/PERFORMANCE.md).
        """
        statement = self.statement(message)
        if self._batch_ok([(statement, shares)], memo):
            return dict(shares)
        return {
            party: signature
            for party, signature in shares.items()
            if self._share_ok(statement, party, signature, memo)
        }

    def combine(
        self,
        message: object,
        shares: dict[int, SchnorrSignature],
        memo: VerifiedMemo | None = None,
    ) -> QuorumCertificate:
        signers = frozenset(shares)
        if not self.qualifier(signers):
            raise ValueError(f"signers {sorted(signers)} do not form a qualified set")
        statement = self.statement(message)
        if not self._batch_ok([(statement, shares)], memo):
            for party, signature in sorted(shares.items()):
                if not self._share_ok(statement, party, signature, memo):
                    raise ValueError(f"invalid signature share from party {party}")
            # The batch rejected but every share verifies individually: a
            # 2^-64 soundness fluke; per-share verdicts are authoritative.
        return QuorumCertificate(signatures=dict(shares))

    def verify(
        self,
        message: object,
        certificate: QuorumCertificate,
        memo: VerifiedMemo | None = None,
    ) -> bool:
        if not self._qualified(certificate):
            return False
        statement = self.statement(message)
        if self._batch_ok([(statement, certificate.signatures)], memo):
            return True
        return all(
            self._share_ok(statement, party, signature, memo)
            for party, signature in certificate.signatures.items()
        )

    def verify_all(
        self,
        claims: Iterable[tuple[object, QuorumCertificate]],
        memo: VerifiedMemo | None = None,
    ) -> bool:
        """Whether every ``(message, certificate)`` pair verifies, in one
        batch; False says only that one fails (:meth:`verify` finds it)."""
        claims = list(claims)
        return all(self._qualified(cert) for _m, cert in claims) and self._batch_ok(
            [(self.statement(message), cert.signatures) for message, cert in claims], memo
        )


@dataclass(frozen=True)
class QuorumCertShareholder:
    """A party's ordinary signing key used to contribute to certificates."""

    party: int
    public: QuorumCertScheme
    key: SigningKey

    def sign_share(
        self, message: object, rng: random.Random, memo: VerifiedMemo | None = None
    ) -> SchnorrSignature:
        return self.key.sign((self.public.tag, message), rng, memo)


def deal_quorum_certs(
    keys: dict[int, SigningKey],
    qualifier: Callable[[frozenset[int]], bool],
    tag: str = "quorum-cert",
) -> tuple[QuorumCertScheme, dict[int, QuorumCertShareholder]]:
    """Build a certificate scheme over existing per-party Schnorr keys."""
    public = QuorumCertScheme(
        verify_keys={party: key.verify_key for party, key in keys.items()},
        qualifier=qualifier,
        tag=tag,
    )
    holders = {
        party: QuorumCertShareholder(party=party, public=public, key=key)
        for party, key in keys.items()
    }
    return public, holders
