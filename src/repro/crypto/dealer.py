"""The trusted dealer (Section 2).

The model assumes a dealer that generates and distributes all secret
values once, when the system is initialized; afterwards the system
processes an unlimited number of requests.  This module is that dealer:
given the party count and either a threshold ``t`` or a generalized
adversary structure with a compatible access formula, it produces

* the quorum system the protocols consult (Section 4.2 rules),
* per-party Schnorr keys for authenticated channels and certificates,
* the threshold coin of the Byzantine agreement protocol [8],
* the TDH2 threshold cryptosystem for secure causal broadcast [36],
* a threshold signature facility: Shoup RSA [35] (threshold case) or
  quorum certificates (any Q^3 structure) — see DESIGN.md.

The output is split into a :class:`PublicKeys` bundle known to
everyone (including clients) and one :class:`PartyKeys` bundle per
server, mirroring the paper's "clients need only know the single public
keys of the service" property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..adversary.formulas import Formula, majority
from ..adversary.hybrid import HybridQuorumSystem
from ..adversary.quorums import (
    GeneralQuorumSystem,
    QuorumSystem,
    ThresholdQuorumSystem,
    access_formula_compatible,
    quorum_system_for,
)
from ..adversary.structures import AdversaryStructure
from .coin import CoinPublic, CoinShareholder, deal_coin
from .groups import SchnorrGroup, default_group
from .lsss import LsssScheme
from .schnorr import SigningKey, VerifyKey, keygen
from .threshold_enc import DecryptionShareholder, EncryptionPublic, deal_encryption
from .threshold_sig import (
    QuorumCertScheme,
    QuorumCertShareholder,
    ShoupRsaScheme,
    ShoupRsaShareholder,
    deal_quorum_certs,
    deal_shoup_rsa,
)

__all__ = [
    "CLIENT_BASE",
    "is_server",
    "PublicKeys",
    "PartyKeys",
    "SystemKeys",
    "deal_channel_keys",
    "deal_system",
]

# Client party ids start here by convention (servers are 0..n-1); the
# dealer provisions channel keys for client ids at deal time so a real
# transport can authenticate client connections too.
CLIENT_BASE = 1000


def is_server(party: int) -> bool:
    """Whether ``party`` is a member of the server group rather than a
    client outside it (Section 2: clients talk to the group by request
    and signed reply; they take no part in its protocols).  The one
    place an id is compared with :data:`CLIENT_BASE`."""
    return party < CLIENT_BASE


@dataclass(frozen=True)
class PublicKeys:
    """Everything that is public: clients and servers all hold this."""

    n: int
    group: SchnorrGroup
    quorum: QuorumSystem
    access_scheme: LsssScheme
    coin: CoinPublic
    encryption: EncryptionPublic
    verify_keys: dict[int, VerifyKey]
    cert_quorum: QuorumCertScheme  # qualified = generalized n-t quorum
    cert_honest: QuorumCertScheme  # qualified = generalized t+1 (contains honest)
    cert_strong: QuorumCertScheme  # qualified = generalized 2t+1 (strong quorum)
    service_signature: ShoupRsaScheme | QuorumCertScheme

    def threshold(self) -> int | None:
        """The classical ``t`` if this is a threshold system, else None."""
        if isinstance(self.quorum, ThresholdQuorumSystem):
            return self.quorum.t
        return None


@dataclass(frozen=True)
class PartyKeys:
    """One server's secret key material."""

    party: int
    signing_key: SigningKey
    coin: CoinShareholder
    decryption: DecryptionShareholder
    cert_quorum: QuorumCertShareholder
    cert_honest: QuorumCertShareholder
    cert_strong: QuorumCertShareholder
    service_signer: ShoupRsaShareholder | QuorumCertShareholder
    # Pairwise symmetric channel keys (peer id -> 32-byte key), the
    # deployment-time mechanism behind the model's authenticated links:
    # a TCP transport HMACs every frame under the key it shares with the
    # peer.  The simulator never reads these.
    channel_keys: dict[int, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class SystemKeys:
    """The dealer's full output."""

    public: PublicKeys
    private: dict[int, PartyKeys]
    # Channel-key bundles for dealt clients (client id -> peer id -> key);
    # each bundle goes to its client over a secure channel, like the
    # server bundles.
    client_channels: dict[int, dict[int, bytes]] = field(default_factory=dict)


def deal_channel_keys(
    parties: list[int], rng: random.Random
) -> dict[int, dict[int, bytes]]:
    """One fresh 32-byte symmetric key per unordered pair of parties.

    Returns, for every party, the map ``peer id -> shared key``; the
    two endpoints of a pair hold the identical key and nobody else
    holds it, so an HMAC under it authenticates the channel in both
    directions (frames carry direction explicitly to stop reflection).
    """
    keyring: dict[int, dict[int, bytes]] = {party: {} for party in parties}
    for index, a in enumerate(parties):
        for b in parties[index + 1 :]:
            key = rng.randbytes(32)
            keyring[a][b] = key
            keyring[b][a] = key
    return keyring


def deal_system(
    n: int,
    rng: random.Random,
    t: int | None = None,
    structure: AdversaryStructure | None = None,
    hybrid: tuple[int, int] | None = None,
    access_formula: Formula | None = None,
    group: SchnorrGroup | None = None,
    signature_backend: str = "certs",
    rsa_bits: int = 512,
    require_q3: bool = True,
    clients: int = 0,
) -> SystemKeys:
    """Run the trusted dealer.

    Args:
        n: number of servers.
        rng: dealer randomness (seed it for reproducible systems).
        t: classical corruption threshold (exclusive with ``structure``).
        structure: generalized adversary structure (Section 4).
        hybrid: ``(b, c)`` — hybrid failure budgets (Section 6): up to
            ``b`` Byzantine corruptions plus ``c`` crashes, ``n > 3b+2c``.
            The sharing threshold defaults to ``b + 1`` because crashed
            servers do not leak their shares.
        access_formula: linear secret sharing recipe; defaults to the
            ``t+1``-majority formula in the threshold case and is
            mandatory (and checked for compatibility) otherwise.
        group: discrete-log group; defaults to the 256-bit group.
        signature_backend: ``"rsa"`` for Shoup threshold signatures
            (threshold systems only) or ``"certs"`` for quorum
            certificates (any structure; also much faster to set up).
        rsa_bits: RSA modulus size when ``signature_backend == "rsa"``.
        require_q3: refuse structures violating the Q^3 condition.
        clients: how many client identities (ids ``CLIENT_BASE`` and up)
            to provision with pairwise channel keys for a deployed
            (socket) transport.
    """
    grp = group or default_group()
    if hybrid is not None:
        if t is not None or structure is not None:
            raise ValueError("hybrid is exclusive with t and structure")
        b, c = hybrid
        quorum: QuorumSystem = HybridQuorumSystem(n=n, b=b, c=c)
    else:
        quorum = quorum_system_for(n, t=t, structure=structure)
    if require_q3 and not quorum.satisfies_q3:
        raise ValueError(f"{quorum.describe()} violates the Q^3 condition")

    if access_formula is None:
        if hybrid is not None:
            access_formula = majority(list(range(n)), hybrid[0] + 1)
        elif t is not None:
            access_formula = majority(list(range(n)), t + 1)
        else:
            raise ValueError("generalized structures need an explicit access formula")
    if structure is not None and not access_formula_compatible(structure, access_formula):
        raise ValueError("access formula incompatible with the adversary structure")
    if hybrid is not None:
        b, c = hybrid
        # Secrecy: no b-sized coalition qualified; liveness: any quorum
        # of n-b-c live servers must reconstruct.
        if b and access_formula.evaluate(frozenset(range(b))):
            raise ValueError("hybrid access formula leaks to Byzantine coalition")
        if not access_formula.evaluate(frozenset(range(n - b - c))):
            raise ValueError("hybrid access formula not reconstructible by a quorum")
    if t is not None and structure is None:
        # Sanity: the formula must at least qualify every n-t set and
        # disqualify every t-set (the threshold compatibility check).
        if not access_formula_compatible(
            quorum_system_for(n, t=t).to_structure(), access_formula  # type: ignore[union-attr]
        ):
            raise ValueError("access formula incompatible with threshold t")

    scheme = LsssScheme(formula=access_formula, modulus=grp.q)

    signing_keys = {i: keygen(rng, grp) for i in range(n)}
    verify_keys = {i: key.verify_key for i, key in signing_keys.items()}

    coin_public, coin_holders = deal_coin(grp, scheme, rng)
    enc_public, enc_holders = deal_encryption(grp, scheme, rng)

    cert_quorum_pub, cert_quorum_holders = deal_quorum_certs(
        signing_keys, qualifier=quorum.is_quorum, tag="cert-quorum"
    )
    cert_honest_pub, cert_honest_holders = deal_quorum_certs(
        signing_keys, qualifier=quorum.contains_honest, tag="cert-honest"
    )
    cert_strong_pub, cert_strong_holders = deal_quorum_certs(
        signing_keys, qualifier=quorum.is_strong_quorum, tag="cert-strong"
    )

    service_public: ShoupRsaScheme | QuorumCertScheme
    service_holders: dict[int, ShoupRsaShareholder | QuorumCertShareholder]
    if signature_backend == "rsa":
        if t is None:
            raise ValueError("the RSA backend requires a threshold system")
        rsa_public, rsa_holders = deal_shoup_rsa(n, t + 1, rng, bits=rsa_bits)
        service_public = rsa_public
        # Dealer indexes RSA shareholders 1..n; re-key to 0-based parties.
        service_holders = {i: rsa_holders[i + 1] for i in range(n)}
    elif signature_backend == "certs":
        service_pub, holders = deal_quorum_certs(
            signing_keys, qualifier=quorum.contains_honest, tag="service-signature"
        )
        service_public = service_pub
        service_holders = dict(holders)
    else:
        raise ValueError(f"unknown signature backend {signature_backend!r}")

    public = PublicKeys(
        n=n,
        group=grp,
        quorum=quorum,
        access_scheme=scheme,
        coin=coin_public,
        encryption=enc_public,
        verify_keys=verify_keys,
        cert_quorum=cert_quorum_pub,
        cert_honest=cert_honest_pub,
        cert_strong=cert_strong_pub,
        service_signature=service_public,
    )
    # A party the access formula never mentions still participates in the
    # protocols; it simply holds no subshares.
    for i in range(n):
        coin_holders.setdefault(
            i, CoinShareholder(party=i, public=coin_public, subshares={})
        )
        enc_holders.setdefault(
            i, DecryptionShareholder(party=i, public=enc_public, subshares={})
        )

    client_ids = [CLIENT_BASE + c for c in range(clients)]
    channel_keyring = deal_channel_keys(list(range(n)) + client_ids, rng)

    private = {
        i: PartyKeys(
            party=i,
            signing_key=signing_keys[i],
            coin=coin_holders[i],
            decryption=enc_holders[i],
            cert_quorum=cert_quorum_holders[i],
            cert_honest=cert_honest_holders[i],
            cert_strong=cert_strong_holders[i],
            service_signer=service_holders[i],
            channel_keys=channel_keyring[i],
        )
        for i in range(n)
    }
    return SystemKeys(
        public=public,
        private=private,
        client_channels={c: channel_keyring[c] for c in client_ids},
    )
