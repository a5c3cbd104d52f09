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
* the service's signature: quorum certificates, sets of ordinary
  signatures that work for any Q^3 structure (the paper's alternative to
  a threshold signature; messages just grow) — see DESIGN.md.

The output is split into a :class:`PublicKeys` bundle known to
everyone (including clients) and one :class:`PartyKeys` bundle per
server, mirroring the paper's "clients need only know the single public
keys of the service" property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from ..adversary.formulas import Formula, majority
from ..adversary.hybrid import HybridQuorumSystem
from ..adversary.quorums import (
    QuorumSystem,
    ThresholdQuorumSystem,
    access_formula_compatible,
    quorum_system_for,
)
from ..adversary.structures import AdversaryStructure
from .accel import accel_for
from .coin import CoinPublic, CoinShareholder
from .groups import SchnorrGroup, default_group
from .lsss import LsssScheme, SlotId
from .schnorr import SigningKey, VerifyKey, keygen
from .shared_exponent import deal_shared_exponent
from .threshold_enc import DecryptionShareholder, EncryptionPublic, second_generator
from .threshold_sig import QuorumCertScheme, QuorumCertShareholder

__all__ = [
    "CLIENT_BASE",
    "is_server",
    "PublicKeys",
    "PartyKeys",
    "SystemKeys",
    "assemble_public_keys",
    "assemble_party_keys",
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
    service_signature: QuorumCertScheme  # qualified = contains an honest party

    def threshold(self) -> int | None:
        """The classical ``t`` if this is a threshold system, else None."""
        if isinstance(self.quorum, ThresholdQuorumSystem):
            return self.quorum.t
        return None

    def is_robust(self, parties: Iterable[int]) -> bool:
        """Whether shares from ``parties`` that agree fix the opened value:
        the access scheme qualifies them less any corruptible set (``2t +
        1`` of a threshold scheme, ``2b + 1`` under hybrid faults).
        Memoized per set: the same senders recur on every coin."""
        present = frozenset(parties)
        memo = self._robust_memo
        verdict = memo.get(present)
        if verdict is None:
            if len(memo) >= 1024:
                memo.clear()
            verdict = memo[present] = self.quorum.is_robust(
                present, self.access_scheme.is_qualified
            )
        return verdict

    @cached_property
    def _robust_memo(self) -> dict[frozenset[int], bool]:
        return {}


@dataclass(frozen=True)
class PartyKeys:
    """One server's secret key material."""

    party: int
    signing_key: SigningKey
    coin: CoinShareholder
    decryption: DecryptionShareholder
    cert_quorum: QuorumCertShareholder
    service_signer: QuorumCertShareholder
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


def assemble_public_keys(
    n: int,
    group: SchnorrGroup,
    quorum: QuorumSystem,
    scheme: LsssScheme,
    verify_keys: dict[int, VerifyKey],
    coin_verification: dict[SlotId, int],
    enc_verification: dict[SlotId, int],
    enc_h: int,
) -> PublicKeys:
    """The public bundle from its parts — the dealer's, a DKG or
    resharing output's, or a keystore file's.

    The one place that says which certificate counts to which set
    (Section 4.2): ``cert-quorum`` to a quorum, ``service-signature`` —
    the service's one signature scheme — to a set containing an honest
    party.  A party without a verify key is outside both.  Each verify
    key is tabled here, and TDH2's ``h`` and ``ḡ``:
    they recur in every round and every confidential request.
    """
    g_bar = second_generator(group)
    for base in (*(key.h for key in verify_keys.values()), enc_h, g_bar):
        accel_for(group).add_table(base)

    def certs(tag: str, qualifier) -> QuorumCertScheme:
        return QuorumCertScheme(verify_keys=verify_keys, qualifier=qualifier, tag=tag)

    return PublicKeys(
        n=n,
        group=group,
        quorum=quorum,
        access_scheme=scheme,
        coin=CoinPublic(group=group, scheme=scheme, verification=coin_verification),
        encryption=EncryptionPublic(
            group=group,
            scheme=scheme,
            h=enc_h,
            g_bar=g_bar,
            verification=enc_verification,
        ),
        verify_keys=verify_keys,
        cert_quorum=certs("cert-quorum", quorum.is_quorum),
        service_signature=certs("service-signature", quorum.contains_honest),
    )


def assemble_party_keys(
    party: int,
    public: PublicKeys,
    signing_key: SigningKey,
    coin_subshares: dict[SlotId, int],
    enc_subshares: dict[SlotId, int],
    channel_keys: dict[int, bytes],
) -> PartyKeys:
    """One server's secret bundle against an assembled public bundle;
    its signing key signs its shares under both certificate schemes."""

    def signer(scheme: QuorumCertScheme) -> QuorumCertShareholder:
        return QuorumCertShareholder(party=party, public=scheme, key=signing_key)

    return PartyKeys(
        party=party,
        signing_key=signing_key,
        coin=CoinShareholder(party=party, public=public.coin, subshares=coin_subshares),
        decryption=DecryptionShareholder(
            party=party, public=public.encryption, subshares=enc_subshares
        ),
        cert_quorum=signer(public.cert_quorum),
        service_signer=signer(public.service_signature),
        channel_keys=channel_keys,
    )


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
    require_q3: bool = True,
    clients: int = 0,
) -> SystemKeys:
    """Run the trusted dealer.  The service's signature is a quorum
    certificate over the servers' Schnorr keys, for any structure.

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

    _, coin_verification, coin_shares = deal_shared_exponent(grp, scheme, rng)
    x, enc_verification, enc_shares = deal_shared_exponent(grp, scheme, rng)

    public = assemble_public_keys(
        n, grp, quorum, scheme, verify_keys,
        coin_verification, enc_verification, grp.power_of_g(x),
    )
    client_ids = [CLIENT_BASE + c for c in range(clients)]
    channel_keyring = deal_channel_keys(list(range(n)) + client_ids, rng)
    # A party the access formula never mentions still participates in the
    # protocols; it simply holds no subshares.
    private = {
        i: assemble_party_keys(
            i, public, signing_keys[i],
            dict(coin_shares.get(i, {})), dict(enc_shares.get(i, {})),
            channel_keyring[i],
        )
        for i in range(n)
    }
    return SystemKeys(
        public=public,
        private=private,
        client_channels={c: channel_keyring[c] for c in client_ids},
    )
