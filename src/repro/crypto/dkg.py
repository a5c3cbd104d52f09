"""Dealerless key generation and verifiable resharing: one dealing protocol.

The trusted dealer of Section 2 is the single point whose compromise
breaks the whole point of distributing trust.  This module removes it
for all *threshold* key material.  What remains provisioned out-of-band
is exactly the model's standing assumption: authenticated point-to-point
channels (pairwise channel keys plus per-party identity signing keys,
whose verify keys every party knows), the same PKI every DKG in the
literature presumes (Pedersen, Gennaro et al., FROST/ChillDKG).

There is one protocol, :class:`VerifiableResharing`: every old
shareholder reshares each old subshare along a *new* access formula,
and the new subshares are the λ-weighted sums over an agreed qualified
set of old dealers.  :func:`key_generation` is that resharing where
each party's "old subshare" is a fresh random secret nobody pins, and
any honest-containing set of them sums (weight 1) to a joint secret no
party knows.  Its building blocks, all from this stack itself:

* **Feldman commitment trees** generalize Feldman's verifiable secret
  sharing to the Benaloh-Leichter LSSS: one coefficient-commitment
  vector per threshold gate of the formula.  A child's value commitment
  is derived publicly from its parent gate (``Π_j C_j^{(i+1)^j}``), so
  a single tree makes every subshare of the sharing verifiable.  A
  resharing pins each tree's root to the old public verification value,
  proving it deals the old subshare and nothing else.
* **Reliable broadcast** (Bracha, keyless) carries each dealer's
  commitment so all honest parties agree on what every dealer dealt.
  Subshares ride *inside* the broadcast, masked by pads derived from
  the pairwise channel keys — no separate private-send round, and a
  complaint can be answered publicly.
* **Complaints with public defense** (Gennaro et al.): a party whose
  subshare fails verification accuses the dealer; the dealer publishes
  the accuser's subshares in the clear (their secrecy is forfeit, the
  sharing's is not) and everyone re-checks them against the commitment
  tree.  A dealer with an invalid defense is expelled; the protocol
  degrades gracefully instead of aborting.
* **Transcript certification** (the ChillDKG session pattern, see
  ROADMAP): each new member signs the hash of its settled transcript —
  the qualified set and its commitments — and the run completes when a
  quorum of *matching* signed transcripts is collected.  The resulting
  certificate is transferable: it convinces anyone that a quorum agreed
  on these keys.  If views diverge (a dealer equivocated near the
  flush boundary) no quorum forms and the session stalls; the host
  retries under a fresh tag — conditional agreement, not disagreement.

The public key is preserved across a resharing (checked, not trusted);
the old shares become useless because the new verification values are
freshly randomized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..adversary.formulas import Formula, Leaf, Threshold
from ..adversary.quorums import QuorumSystem
from ..codec import admits, register
from ..core.protocol import Context, Protocol, SessionId
from ..core.reliable_broadcast import ReliableBroadcast, rbc_session
from .accel import accel_for
from .dealer import PartyKeys, PublicKeys, assemble_party_keys, assemble_public_keys
from .groups import SchnorrGroup
from .hashing import hash_bytes, hash_to_exponent
from .lsss import LsssScheme, LsssSharing, SlotId
from .schnorr import Signature, SigningKey, VerifyKey, keygen
from .shamir import evaluate_polynomial

__all__ = [
    "FeldmanTree",
    "deal_verifiable",
    "tree_commitments",
    "tree_consistent",
    "slot_commitment",
    "secret_commitment",
    "BootstrapPublic",
    "BootstrapKeys",
    "provision_bootstrap",
    "ReshareCommit",
    "DkgStatus",
    "DkgDefense",
    "DkgReady",
    "DkgOutput",
    "dkg_session",
    "reshare_session",
    "VerifiableResharing",
    "key_generation",
    "build_public_keys",
    "build_party_keys",
]


# ===========================================================================
# Feldman commitment trees over the Benaloh-Leichter formula
# ===========================================================================


@register
@dataclass(frozen=True)
class FeldmanTree:
    """Per-gate Feldman coefficient commitments for an LSSS sharing.

    ``nodes`` maps each threshold gate of the access formula — by its
    path, preorder — to the commitments ``g^{a_0} … g^{a_{k-1}}`` of the
    Shamir polynomial dealt at that gate.  Everything is nested tuples,
    so a tree is hashable (reliable broadcast requires it) and
    wire-encodable.
    """

    nodes: tuple[tuple[SlotId, tuple[int, ...]], ...]


def _gate_map(formula: Formula) -> dict[SlotId, Threshold]:
    """Every threshold gate of the formula by its path."""
    gates: dict[SlotId, Threshold] = {}

    def collect(node: Formula, path: SlotId) -> None:
        if isinstance(node, Threshold):
            gates[path] = node
            for idx, child in enumerate(node.children):
                collect(child, (*path, idx))

    collect(formula, ())
    return gates


def _derived_commitment(
    group: SchnorrGroup, commitments: tuple[int, ...], point: int
) -> int:
    """``Π_j C_j^{point^j}`` — the value commitment of child ``point``."""
    pairs = []
    power = 1
    for commitment in commitments:
        pairs.append((commitment, power))
        power = (power * point) % group.q
    return group.multiexp(pairs)


def deal_verifiable(
    group: SchnorrGroup,
    scheme: LsssScheme,
    secret: int,
    rng: random.Random,
) -> tuple[LsssSharing, FeldmanTree]:
    """Deal ``secret`` along the formula, emitting Feldman commitments.

    Mirrors :meth:`LsssScheme.deal` exactly (same recursion, same
    points), additionally committing to every gate polynomial so each
    subshare can be verified against public values alone.
    """
    if scheme.modulus != group.q:
        raise ValueError("LSSS must be over Z_q of the group")
    shares: dict[int, dict[SlotId, int]] = {}
    nodes: list[tuple[SlotId, tuple[int, ...]]] = []

    def descend(node: Formula, value: int, path: SlotId) -> None:
        if isinstance(node, Leaf):
            shares.setdefault(node.party, {})[path] = value % group.q
            return
        assert isinstance(node, Threshold)
        coeffs = [value % group.q] + [
            rng.randrange(group.q) for _ in range(node.k - 1)
        ]
        nodes.append((path, tuple(group.power_of_g(c) for c in coeffs)))
        for idx, child in enumerate(node.children):
            child_value = evaluate_polynomial(coeffs, idx + 1, group.q)
            descend(child, child_value, (*path, idx))

    descend(scheme.formula, secret % group.q, ())
    return LsssSharing(shares=shares), FeldmanTree(nodes=tuple(nodes))


def tree_commitments(tree: FeldmanTree) -> dict[SlotId, tuple[int, ...]]:
    """The tree's gate->commitments map (no validation)."""
    return dict(tree.nodes)


def tree_consistent(
    group: SchnorrGroup,
    scheme: LsssScheme,
    tree: object,
    root: int | None = None,
) -> bool:
    """Full structural + algebraic validation of an untrusted tree.

    Checks that the gates mirror the formula exactly, that every
    commitment is a group member, and that each non-root gate's
    constant-term commitment equals the value commitment derived from
    its parent — i.e. the tree is one consistent sharing.  With
    ``root`` given, additionally pins the root secret commitment to it
    (used by resharing to prove the dealt secret IS the old subshare).
    """
    if not isinstance(tree, FeldmanTree):
        return False
    gates = _gate_map(scheme.formula)
    if () not in gates:
        return False  # a bare-leaf formula has nothing to commit to
    seen = dict(tree.nodes)
    if len(seen) != len(tree.nodes) or set(seen) != set(gates):
        return False
    for path in sorted(gates):
        commitments = seen[path]
        if len(commitments) != gates[path].k:
            return False
        if not all(group.is_member(c) for c in commitments):
            return False
    if root is not None and seen[()][0] != root:
        return False
    for path in sorted(gates):
        if not path:
            continue
        derived = _derived_commitment(group, seen[path[:-1]], path[-1] + 1)
        if seen[path][0] != derived:
            return False
    return True


def slot_commitment(
    group: SchnorrGroup,
    commitments: dict[SlotId, tuple[int, ...]],
    slot: SlotId,
) -> int:
    """The public value commitment ``g^{subshare}`` of a leaf slot."""
    parent = commitments.get(slot[:-1])
    if parent is None:
        raise KeyError(f"slot {slot} has no parent gate in the tree")
    return _derived_commitment(group, parent, slot[-1] + 1)


def secret_commitment(tree: FeldmanTree) -> int:
    """``g^{secret}`` — the root gate's constant-term commitment."""
    return tree_commitments(tree)[()][0]


# ===========================================================================
# Bootstrap bundles (the pre-key Context surface)
# ===========================================================================


@dataclass(frozen=True)
class BootstrapPublic:
    """A pre-key stand-in for :class:`PublicKeys`.

    Carries exactly the Context surface the keyless bootstrap protocols
    (reliable broadcast, DKG) read: the party count and the quorum
    system — both public parameters, agreed out-of-band like the
    channel keys.
    """

    n: int
    quorum: QuorumSystem


@dataclass(frozen=True)
class BootstrapKeys:
    """A party's pre-key identity: signing key + pairwise channel keys.

    This is the authenticated-channel assumption of the model made
    concrete; no *threshold* secret exists anywhere before the DKG.
    """

    party: int
    signing_key: SigningKey
    channel_keys: dict[int, bytes] = field(default_factory=dict)


def provision_bootstrap(
    parties: list[int],
    rng: random.Random,
    group: SchnorrGroup,
) -> dict[int, BootstrapKeys]:
    """Operator-side PKI provisioning: identity keys + channel keys.

    This is the *only* out-of-band step of a dealerless setup, and it
    carries no threshold secret: compromising one bundle corrupts one
    party, exactly the model's per-party assumption.  (The dealer, by
    contrast, knows every secret of every party.)
    """
    from .dealer import deal_channel_keys

    channel_keys = deal_channel_keys(parties, rng)
    return {
        party: BootstrapKeys(
            party=party,
            signing_key=keygen(rng, group),
            channel_keys=channel_keys[party],
        )
        for party in parties
    }


def _mask_key(keys: object, peer: int) -> bytes:
    """The symmetric key this party shares with ``peer``.

    A dealer's own subshares are masked under a key derived from its
    signing key (nobody else must learn even the dealer's own-slot
    contribution: if every other contributor to a slot were corrupted,
    publishing it would hand the adversary the summed subshare).
    """
    if peer == keys.party:
        return hash_bytes("dkg-self-mask", keys.signing_key.x)
    key = keys.channel_keys.get(peer)
    if key is None:
        raise ValueError(f"party {keys.party} holds no channel key for {peer}")
    return key


def _pad(
    group: SchnorrGroup,
    key: bytes,
    session: SessionId,
    dealer: int,
    owner: int,
    kind: str,
    slot: object,
) -> int:
    """The one-time pad masking one subshare inside a public commit."""
    return hash_to_exponent(group, "dkg-pad", key, session, dealer, owner, kind, slot)


# ===========================================================================
# Messages
# ===========================================================================


@register
@dataclass(frozen=True)
class ReshareCommit:
    """One old party's resharing of every old subshare it owns.

    Entries are ``(old_slot, tree, masked_table)`` where the tree deals
    the old subshare along the NEW formula with its root commitment
    pinned to the old public verification value — publicly proving the
    resharing preserves the secret (key generation's fresh secrets have
    no such value and are not pinned).  The masked tables are
    ``((new_slot, value + pad), ...)`` over *all* new slots; only each
    slot's owner can strip its pad, but everyone can check the table
    covers the right slots.
    """

    coin: tuple[tuple[SlotId, FeldmanTree, tuple[tuple[SlotId, int], ...]], ...]
    enc: tuple[tuple[SlotId, FeldmanTree, tuple[tuple[SlotId, int], ...]], ...]


@register
@dataclass(frozen=True)
class DkgStatus:
    """One receiver's complete complaint set — the complaint round.

    Broadcast exactly once, after every dealer's commit has been
    delivered (or the dealer excluded), so it lists *all* dealers whose
    subshares failed verification.  Settlement waits for a status from
    every receiver: no party freezes its transcript while a complaint
    it has not yet seen is in flight — the async race that would
    otherwise split the qualified set on every expulsion.
    """

    complaints: tuple[int, ...]


@register
@dataclass(frozen=True)
class DkgDefense:
    """The dealer's public answer: the accuser's subshares in the clear.

    Everyone re-checks them against the commitment tree; a valid
    defense clears the dealer (and re-supplies the accuser), an invalid
    one expels it.
    """

    accuser: int
    coin_values: tuple[tuple[SlotId, tuple[tuple[SlotId, int], ...]], ...]
    enc_values: tuple[tuple[SlotId, tuple[tuple[SlotId, int], ...]], ...]


@register
@dataclass(frozen=True)
class DkgReady:
    """A signed transcript hash; a quorum of matching ones completes."""

    digest: bytes
    signature: Signature


def dkg_session(tag: object = "boot") -> SessionId:
    return ("dkg", tag)


def reshare_session(epoch: int, tag: object = "reshare") -> SessionId:
    return ("reshare", tag, epoch)


@dataclass(frozen=True)
class DkgOutput:
    """What a completed session yields at one party.

    ``certificate`` is the transferable proof — ``((party, signature),
    ...)`` over the transcript digest from a quorum — and the
    verification maps / subshares are this party's view of the agreed
    keys (identical at every certifying party by construction).
    """

    qualified: tuple[int, ...]
    digest: bytes
    certificate: tuple
    verify_keys: dict[int, int]
    coin_verification: dict[SlotId, int]
    enc_verification: dict[SlotId, int]
    encryption_h: int
    coin_subshares: dict[SlotId, int]
    enc_subshares: dict[SlotId, int]


# ===========================================================================
# The dealing protocol: verifiable resharing
# ===========================================================================


def _table_wellformed(table: tuple, slots: set[SlotId], modulus: int) -> bool:
    """A masked table (or a defense's values) must cover exactly
    ``slots`` with reduced values."""
    seen = {slot for slot, _value in table}
    return (
        len(table) == len(slots) == len(seen & slots)
        and all(0 <= value < modulus for _slot, value in table)
    )


class VerifiableResharing(Protocol):
    """Move an existing sharing onto a new access structure/membership.

    Every old shareholder reshares each of its old subshares along the
    *new* formula, with the commitment tree's root pinned to the old
    public verification value where one is given — so a resharing
    provably deals the old subshare and nothing else.  New members
    collect commits from a set ``U`` of old dealers that is qualified
    under the OLD scheme and take ``Σ_s λ^U_s · reshare_s`` as their new
    subshares, where λ are the old scheme's recombination coefficients
    for ``U``.  Agreement on ``U`` is what the ready certification
    settles: coefficients depend on ``U``, so parties mixing different
    dealer sets would hold an inconsistent sharing.

    The session runs on the OLD epoch's runtime (old quorum rules drive
    reliable broadcast; :func:`key_generation` runs on a bootstrap
    runtime); readies are signed under ``new_verify_keys`` by NEW
    members and complete under the NEW quorum system, so the
    certificate convinces the next epoch.  A joining member
    participates with a bootstrap bundle; a departing member deals but
    receives nothing, and its old subshares are useless against the
    freshly randomized new verification values.

    All decisions are functions of *sets* of received messages
    (iterated in sorted order), never of arrival order, so honest
    parties with the same message set reach the same verdicts.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        old_scheme: LsssScheme,
        new_scheme: LsssScheme,
        old_coin_verification: dict[SlotId, int],
        old_enc_verification: dict[SlotId, int],
        new_members: tuple[int, ...],
        new_quorum: QuorumSystem,
        new_verify_keys: dict[int, int],
        old_coin_subshares: dict[SlotId, int] | None = None,
        old_enc_subshares: dict[SlotId, int] | None = None,
    ) -> None:
        if old_scheme.modulus != group.q or new_scheme.modulus != group.q:
            raise ValueError("LSSS must be over Z_q of the group")
        self.group = group
        self.old_scheme = old_scheme
        self.new_scheme = new_scheme
        self.old_coin_verification = dict(old_coin_verification)
        self.old_enc_verification = dict(old_enc_verification)
        self.new_members = tuple(sorted(new_members))
        self.new_quorum = new_quorum
        self.new_verify_keys = dict(new_verify_keys)
        # Every ready is checked under one of them.
        for h in self.new_verify_keys.values():
            accel_for(group).add_table(h)
        self.old_coin_subshares = dict(old_coin_subshares or {})
        self.old_enc_subshares = dict(old_enc_subshares or {})
        self._old_owner = dict(old_scheme.slots())
        self.dealers = tuple(sorted(set(self._old_owner.values())))
        self._dealt: dict[tuple[str, SlotId], LsssSharing] = {}
        # dealer -> old_slot -> my verified new subshares of that resharing
        self._coin_received: dict[int, dict[SlotId, dict[SlotId, int]]] = {}
        self._enc_received: dict[int, dict[SlotId, dict[SlotId, int]]] = {}
        self._lambda: dict[SlotId, int] | None = None
        self.commits: dict[int, ReshareCommit] = {}
        self.excluded: set[int] = set()
        # dealer -> accusers whose complaint awaits a (valid) defense
        self.pending: dict[int, set[int]] = {}
        self.flushed = False
        self.statuses: dict[int, tuple] = {}
        self._my_complaints: set[int] = set()
        self._status_sent = False
        self._defended: set[int] = set()
        # dealer -> accuser -> the first defense that overtook its commit
        self._buffered_defenses: dict[int, dict[int, DkgDefense]] = {}
        self._readies: dict[int, DkgReady] = {}
        self._digest: bytes | None = None
        self._qualified: tuple[int, ...] | None = None
        self._done = False

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        for dealer in self.dealers:
            value = None
            if dealer == ctx.party:
                value = self._make_commit(ctx)
            ctx.spawn(
                rbc_session(dealer, ctx.session),
                ReliableBroadcast(
                    dealer, value=value, validate=self._commit_acceptable
                ),
                on_output=lambda commit, dealer=dealer: self._on_commit(
                    ctx, dealer, commit
                ),
            )

    def flush(self, ctx: Context) -> None:
        """Liveness hatch: stop waiting for unsettled dealers.

        The host calls this after its patience runs out; dealers whose
        commit never delivered, or who never answered a complaint, are
        expelled.  Hosts should flush on comparable timeouts — a party
        that flushes while another still waits can settle on a
        different qualified set, in which case no ready quorum forms
        and the session is retried under a fresh tag.
        """
        if self.flushed or self._digest is not None:
            return
        self.flushed = True
        self._maybe_ready(ctx)

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, DkgStatus):
            self._on_status(ctx, sender, message)
        elif isinstance(message, DkgDefense):
            self._on_defense(ctx, sender, message)
        elif isinstance(message, DkgReady):
            self._on_ready(ctx, sender, message)
        # anything else: Byzantine junk, ignored

    # -- commits -----------------------------------------------------------

    def _make_commit(self, ctx: Context) -> ReshareCommit:
        coin_entries = []
        enc_entries = []
        for kind, subshares, entries in (
            ("coin", self.old_coin_subshares, coin_entries),
            ("enc", self.old_enc_subshares, enc_entries),
        ):
            for old_slot in sorted(self.old_scheme.slots_of_party(ctx.party)):
                sharing, tree = deal_verifiable(
                    self.group, self.new_scheme, subshares[old_slot], ctx.rng
                )
                self._dealt[(kind, old_slot)] = sharing
                entries.append(
                    (
                        old_slot,
                        tree,
                        self._mask_table(ctx, sharing, kind, old_slot),
                    )
                )
        return ReshareCommit(coin=tuple(coin_entries), enc=tuple(enc_entries))

    def _mask_table(
        self, ctx: Context, sharing: LsssSharing, kind: str, old_slot: SlotId
    ) -> tuple:
        entries = []
        for new_slot, value in sorted(sharing.all_slots().items()):
            owner = self.new_scheme.slot_owner(new_slot)
            pad = _pad(
                self.group,
                _mask_key(ctx.keys, owner),
                ctx.session,
                ctx.party,
                owner,
                kind,
                (old_slot, new_slot),
            )
            entries.append((new_slot, (value + pad) % self.group.q))
        return tuple(entries)

    def _entries_acceptable(
        self, entries: tuple, pins: dict[SlotId, int]
    ) -> set[SlotId] | None:
        """Structural check of one kind's entries; returns the old slots."""
        new_slots = {slot for slot, _ in self.new_scheme.slots()}
        seen: set[SlotId] = set()
        for old_slot, tree, table in entries:
            if old_slot not in self._old_owner or old_slot in seen:
                return None
            if not tree_consistent(
                self.group, self.new_scheme, tree, root=pins.get(old_slot)
            ):
                return None
            if not _table_wellformed(table, new_slots, self.group.q):
                return None
            seen.add(old_slot)
        return seen

    def _commit_acceptable(self, value: object) -> bool:
        # Reliable broadcast carries any value: admission is checked here.
        if type(value) is not ReshareCommit or not admits(value):
            return False
        coin_slots = self._entries_acceptable(
            value.coin, self.old_coin_verification
        )
        enc_slots = self._entries_acceptable(value.enc, self.old_enc_verification)
        if coin_slots is None or enc_slots is None:
            return False
        # All reshared slots must belong to one old party, completely
        # (which party is checked against the RBC sender on delivery).
        owners = {self._old_owner[slot] for slot in coin_slots | enc_slots}
        if len(owners) != 1:
            return False
        owner = next(iter(owners))
        expected = set(self.old_scheme.slots_of_party(owner))
        return coin_slots == expected and enc_slots == expected

    def _on_commit(self, ctx: Context, dealer: int, commit: ReshareCommit) -> None:
        if dealer in self.commits or dealer in self.excluded:
            return
        self.commits[dealer] = commit
        if ctx.party in self.new_members and not self._absorb_commit(
            ctx, dealer, commit
        ):
            self._my_complaints.add(dealer)
        for defense in self._buffered_defenses.pop(dealer, {}).values():
            self._process_defense(ctx, dealer, defense)
        self._maybe_ready(ctx)

    def _absorb_commit(
        self, ctx: Context, dealer: int, commit: ReshareCommit
    ) -> bool:
        """Unmask and verify my subshares; False triggers a complaint."""
        expected = set(self.old_scheme.slots_of_party(dealer))
        if {slot for slot, _, _ in commit.coin} != expected:
            # Consistent, pinned — but resharing someone ELSE's slots.
            # Reliable broadcast delivered the same commit everywhere,
            # so this exclusion is deterministic too.
            self._exclude(dealer)
            return True
        ok = True
        for kind, entries, store in (
            ("coin", commit.coin, self._coin_received),
            ("enc", commit.enc, self._enc_received),
        ):
            received = store.setdefault(dealer, {})
            for old_slot, tree, table in entries:
                masked = dict(table)
                commitments = tree_commitments(tree)
                mine: dict[SlotId, int] = {}
                for new_slot in sorted(
                    self.new_scheme.slots_of_party(ctx.party)
                ):
                    pad = _pad(
                        self.group,
                        _mask_key(ctx.keys, dealer),
                        ctx.session,
                        dealer,
                        ctx.party,
                        kind,
                        (old_slot, new_slot),
                    )
                    value = (masked[new_slot] - pad) % self.group.q
                    if self.group.power_of_g(value) == slot_commitment(
                        self.group, commitments, new_slot
                    ):
                        mine[new_slot] = value
                    else:
                        ok = False
                received[old_slot] = mine
        return ok

    # -- complaint statuses and defenses -----------------------------------

    def _on_status(self, ctx: Context, sender: int, message: DkgStatus) -> None:
        if sender in self.statuses or sender not in self.new_members:
            return
        complaints = message.complaints
        self.statuses[sender] = complaints
        for dealer in sorted(set(complaints)):
            if dealer not in self.dealers:
                continue
            # Answering a complaint is a standing duty even after our
            # own transcript froze: the defense never changes *our*
            # qualified set, but it unblocks the accuser.
            if dealer == ctx.party and sender not in self._defended:
                self._defended.add(sender)
                ctx.broadcast(self._defense_payload(ctx, sender))
            if dealer in self.excluded or self._digest is not None:
                continue
            self.pending.setdefault(dealer, set()).add(sender)
        self._maybe_ready(ctx)

    def _defense_payload(self, ctx: Context, accuser: int) -> DkgDefense:
        def values(kind: str) -> tuple:
            entries = []
            for old_slot in sorted(self.old_scheme.slots_of_party(ctx.party)):
                sharing = self._dealt[(kind, old_slot)]
                entries.append(
                    (old_slot, tuple(sorted(sharing.share_of(accuser).items())))
                )
            return tuple(entries)

        return DkgDefense(
            accuser=accuser, coin_values=values("coin"), enc_values=values("enc")
        )

    def _on_defense(self, ctx: Context, sender: int, message: DkgDefense) -> None:
        # The network authenticates the sender, so only the dealer
        # itself can answer for its own sharing.
        if sender not in self.dealers or sender in self.excluded:
            return
        if sender not in self.commits:
            # At most one per (dealer, accuser), and only for an accuser
            # whose complaint could ever be pending: a dealer that never
            # commits cannot grow this past |dealers| x |receivers|.
            accuser = message.accuser
            if accuser in self.new_members:
                self._buffered_defenses.setdefault(sender, {}).setdefault(
                    accuser, message
                )
            return
        self._process_defense(ctx, sender, message)

    def _process_defense(
        self, ctx: Context, dealer: int, defense: DkgDefense
    ) -> None:
        if self._digest is not None or dealer in self.excluded:
            return
        if self._check_defense(ctx, dealer, defense):
            self.pending.get(dealer, set()).discard(defense.accuser)
        else:
            self._exclude(dealer)
        self._maybe_ready(ctx)

    def _check_defense(
        self, ctx: Context, dealer: int, defense: DkgDefense
    ) -> bool:
        commit = self.commits[dealer]
        accuser_slots = set(self.new_scheme.slots_of_party(defense.accuser))
        old_slots = sorted(self.old_scheme.slots_of_party(dealer))
        adopted: dict[str, dict[SlotId, dict[SlotId, int]]] = {
            "coin": {},
            "enc": {},
        }
        for kind, values, entries in (
            ("coin", defense.coin_values, commit.coin),
            ("enc", defense.enc_values, commit.enc),
        ):
            if len(values) != len(old_slots):
                return False
            trees = {old_slot: tree for old_slot, tree, _ in entries}
            seen: set[SlotId] = set()
            for old_slot, slot_values in values:
                if old_slot not in trees or old_slot in seen:
                    return False
                seen.add(old_slot)
                if not _table_wellformed(slot_values, accuser_slots, self.group.q):
                    return False
                commitments = tree_commitments(trees[old_slot])
                for new_slot, value in slot_values:
                    if self.group.power_of_g(value) != slot_commitment(
                        self.group, commitments, new_slot
                    ):
                        return False
                adopted[kind][old_slot] = dict(slot_values)
        if defense.accuser == ctx.party:
            # The defense both clears the dealer and re-supplies us;
            # the values just verified, so adopt them.
            self._coin_received[dealer] = adopted["coin"]
            self._enc_received[dealer] = adopted["enc"]
        return True

    def _exclude(self, dealer: int) -> None:
        self.excluded.add(dealer)
        self.pending.pop(dealer, None)

    # -- settlement and certification --------------------------------------

    def _maybe_ready(self, ctx: Context) -> None:
        if (
            self._digest is not None
            or self._done
            or ctx.party not in self.new_members
        ):
            return
        undelivered = [
            d
            for d in self.dealers
            if d not in self.excluded and d not in self.commits
        ]
        if undelivered:
            if not self.flushed:
                return
            for dealer in undelivered:
                self._exclude(dealer)
        # Commit phase settled locally: announce our complaint set, once.
        if not self._status_sent:
            self._status_sent = True
            complaints = tuple(sorted(self._my_complaints - self.excluded))
            self.statuses[ctx.party] = complaints
            for dealer in complaints:
                self.pending.setdefault(dealer, set()).add(ctx.party)
            ctx.broadcast(DkgStatus(complaints=complaints))
        # The complaint round: wait for every receiver's status (the
        # flush hatch covers crashed receivers) ...
        if not self.flushed and any(
            r not in self.statuses for r in self.new_members
        ):
            return
        # ... and for every voiced complaint to be defended or fatal.
        unresolved = [
            d
            for d in self.dealers
            if d not in self.excluded and self.pending.get(d)
        ]
        if unresolved:
            if not self.flushed:
                return
            for dealer in unresolved:
                self._exclude(dealer)
        qualified = tuple(
            d for d in self.dealers if d not in self.excluded and d in self.commits
        )
        lam = self.old_scheme.recombination(frozenset(qualified))
        if lam is None:
            return  # unusable qualified set: stall, host retries fresh
        self._lambda = lam
        self._qualified = qualified
        self._digest = hash_bytes(
            "dkg-transcript",
            ctx.session,
            qualified,
            tuple(self.commits[d] for d in qualified),
            (self.new_members, tuple(sorted(self.new_verify_keys.items()))),
        )
        signature = ctx.keys.signing_key.sign(
            ("dkg-ready", ctx.session, self._digest), ctx.rng
        )
        ctx.broadcast(DkgReady(digest=self._digest, signature=signature))
        self._maybe_complete(ctx)

    def _on_ready(self, ctx: Context, sender: int, message: DkgReady) -> None:
        if sender in self._readies:
            return
        self._readies[sender] = message
        self._maybe_complete(ctx)

    def _maybe_complete(self, ctx: Context) -> None:
        if self._done or self._digest is None or self._qualified is None:
            return
        matching: dict[int, Signature] = {}
        for party in sorted(self._readies):
            ready = self._readies[party]
            h = self.new_verify_keys.get(party)
            if ready.digest != self._digest or h is None:
                continue
            if not VerifyKey(group=self.group, h=h).verify(
                ("dkg-ready", ctx.session, self._digest), ready.signature
            ):
                continue
            matching[party] = ready.signature
        if not self.new_quorum.is_quorum(frozenset(matching)):
            return
        self._done = True
        certificate = tuple(
            (party, matching[party]) for party in sorted(matching)
        )
        ctx.output(
            self._make_output(ctx, self._qualified, self._digest, certificate)
        )

    def _make_output(
        self,
        ctx: Context,
        qualified: tuple[int, ...],
        digest: bytes,
        certificate: tuple,
    ) -> DkgOutput:
        group = self.group
        assert self._lambda is not None
        weights = sorted(self._lambda.items())
        my_slots = sorted(self.new_scheme.slots_of_party(ctx.party))

        def reshared(entries_of, received: dict[int, dict[SlotId, dict[SlotId, int]]]):
            """One shared exponent carried over — the λ-combination of the
            old slots' resharings: the old slots' commitment trees, the
            new verification values and my new subshares."""
            trees = {
                old_slot: tree_commitments(tree)
                for dealer in qualified
                for old_slot, tree, _ in entries_of(self.commits[dealer])
            }
            verification = {
                new_slot: group.multiexp(
                    (slot_commitment(group, trees[old_slot], new_slot), coeff)
                    for old_slot, coeff in weights
                )
                for new_slot, _ in self.new_scheme.slots()
            }
            subshares = {
                new_slot: sum(
                    coeff * received[self._old_owner[old_slot]][old_slot][new_slot]
                    for old_slot, coeff in weights
                ) % group.q
                for new_slot in my_slots
            }
            return trees, verification, subshares

        _, coin_verification, coin_subshares = reshared(
            lambda commit: commit.coin, self._coin_received
        )
        enc_trees, enc_verification, enc_subshares = reshared(
            lambda commit: commit.enc, self._enc_received
        )
        encryption_h = group.multiexp(
            (enc_trees[old_slot][()][0], coeff) for old_slot, coeff in weights
        )
        return DkgOutput(
            qualified=qualified,
            digest=digest,
            certificate=certificate,
            verify_keys=dict(self.new_verify_keys),
            coin_verification=coin_verification,
            enc_verification=enc_verification,
            encryption_h=encryption_h,
            coin_subshares=coin_subshares,
            enc_subshares=enc_subshares,
        )


# ===========================================================================
# Key generation: a resharing of fresh secrets
# ===========================================================================


@dataclass(frozen=True)
class _Contributions:
    """The "old scheme" of key generation: party ``p``'s fresh secret
    is the one slot ``(p,)``, and the secrets of any honest-containing
    set add up, each with weight 1, to a joint secret nobody knows."""

    parties: tuple[int, ...]
    quorum: QuorumSystem
    modulus: int

    def slots(self) -> list[tuple[SlotId, int]]:
        return [((party,), party) for party in self.parties]

    def slots_of_party(self, party: int) -> list[SlotId]:
        return [(party,)] if party in self.parties else []

    def recombination(self, present: frozenset[int]) -> dict[SlotId, int] | None:
        if not self.quorum.contains_honest(present):
            return None  # secrecy needs one honest contribution in the sum
        return {(party,): 1 for party in sorted(present)}


def key_generation(
    group: SchnorrGroup,
    scheme: LsssScheme,
    quorum: QuorumSystem,
    verify_keys: dict[int, int],
    party: int,
    rng: random.Random,
) -> VerifiableResharing:
    """One dealerless key-generation session for ``party``: every party
    of the PKI ``verify_keys`` (party -> identity ``h``) reshares two
    fresh random secrets — the coin and the encryption contribution —
    onto ``scheme``, with no pin on either.  The output is assembled by
    :func:`build_public_keys` / :func:`build_party_keys`, drop-in
    compatible with the dealer's bundles and the keystore format; every
    party keeps its PKI verify key, qualified or not."""
    parties = tuple(sorted(verify_keys))
    return VerifiableResharing(
        group,
        _Contributions(parties, quorum, group.q),
        scheme,
        {},
        {},
        parties,
        quorum,
        verify_keys,
        {(party,): group.random_exponent(rng)},
        {(party,): group.random_exponent(rng)},
    )


# ===========================================================================
# Key assembly (dealer-compatible bundles)
# ===========================================================================


def build_public_keys(
    group: SchnorrGroup,
    scheme: LsssScheme,
    quorum: QuorumSystem,
    n: int,
    output: DkgOutput,
) -> PublicKeys:
    """Assemble a dealer-compatible :class:`PublicKeys` from a DKG or
    resharing output.

    Verify keys are the session's PKI identity keys, so every member
    keeps one: a dealer expelled from the qualified set (crashed, slow
    or caught lying) contributed nothing to the threshold secrets but
    still signs certificates, and the quorum rules already tolerate it
    if it is in fact corrupted.
    """
    verify_keys = {
        party: VerifyKey(group=group, h=h)
        for party, h in sorted(output.verify_keys.items())
    }
    return assemble_public_keys(
        n, group, quorum, scheme, verify_keys,
        dict(output.coin_verification), dict(output.enc_verification),
        output.encryption_h,
    )


def build_party_keys(
    party: int,
    public: PublicKeys,
    signing_key: SigningKey,
    output: DkgOutput,
    channel_keys: dict[int, bytes] | None = None,
) -> PartyKeys:
    """Assemble this party's dealer-compatible :class:`PartyKeys`
    (dealerless setups use the certificate backend)."""
    return assemble_party_keys(
        party, public, signing_key,
        dict(output.coin_subshares), dict(output.enc_subshares),
        dict(channel_keys or {}),
    )
