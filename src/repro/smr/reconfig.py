"""Epoch-based online reconfiguration (membership change without downtime).

A membership change is itself an *ordered operation*: a current member
signs a ``Reconfigure`` request and a client submits it through the
same atomic broadcast as any write, so every honest replica decides the
change at the same point of the total order.  On commit, the cluster
runs the verifiable resharing of :mod:`repro.crypto.dkg` to the new
membership and switches to a new **epoch**:

* the service session becomes epoch-tagged — every protocol message
  carries the epoch in its session id, so cross-epoch shares are
  refused by construction (they land in a different session, under
  different keys);
* the old session is replaced by an :class:`EpochTombstone` that
  answers any late submission with :class:`EpochError` plus a signed
  :class:`MembershipInfo`, which is how a stale client (or a replica
  restarting from an old checkpoint) discovers the new configuration
  without trusting any single replica;
* the departed replica's shares become useless (the resharing
  re-randomizes every verification value), and the joining replica
  state-transfers through the ordinary Section-6 recovery protocol on
  the *new* session.

Epoch numbering starts at 0 (the session id stays the classic
``("service", tag)`` so dealer-era deployments are untouched) and each
committed ``Reconfigure`` opens epoch+1.

This module holds the pure, host-independent pieces: the operation
format, the membership it moves (:class:`Membership`,
:func:`next_membership`), session naming, the membership statement
clients verify, and the tombstone protocol.  The orchestration — when
to reshare, swapping runtime keys, persisting the new keystore — lives
in :class:`repro.net.runtime.ReplicaHost`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from ..adversary.quorums import QuorumSystem, ThresholdQuorumSystem
from ..codec import admits, register
from ..core.protocol import Context, Protocol, SessionId
from ..crypto import keystore
from ..crypto.dealer import PublicKeys
from ..crypto.groups import SchnorrGroup
from ..crypto.schnorr import Signature, SigningKey, VerifyKey

__all__ = [
    "RECONFIG_KIND",
    "ACTIONS",
    "EpochError",
    "MembershipQuery",
    "MembershipInfo",
    "ReconfigureRequest",
    "EpochTombstone",
    "epoch_service_session",
    "membership_statement",
    "signed_membership_info",
    "verify_membership_info",
    "adopt_membership",
    "reconfigure_operation",
    "parse_reconfigure",
    "Membership",
    "next_membership",
]

RECONFIG_KIND = "reconfig"

# add: admit a new replica with the next free id (membership stays a
#      contiguous range, which every quorum construction here assumes);
# remove: retire the highest id;
# refresh: keep the membership but reshare anyway — a proactive epoch,
#      and the chaos engine's way of exercising the boundary.
ACTIONS = ("add", "remove", "refresh")


# ===========================================================================
# Wire messages
# ===========================================================================


@register
@dataclass(frozen=True)
class EpochError:
    """This session's epoch is closed; ask for the new membership."""

    replica: int
    epoch: int


@register
@dataclass(frozen=True)
class MembershipQuery:
    """Client request for the current (signed) membership record."""

    # dataclasses need a field for the codec's field-count check; the
    # epoch the asker believes in doubles as light diagnostics.
    known_epoch: int


@register
@dataclass(frozen=True)
class MembershipInfo:
    """One replica's signed statement of the current configuration.

    ``public_json`` is the canonical keystore serialization of the
    epoch's :class:`PublicKeys`.  A client believes a configuration
    once an honest-containing set of replicas — verified against the
    verify keys it *already trusts* — signed the same statement; since
    continuing members keep their identity keys across epochs, this
    chains trust from any past epoch to the present one.
    """

    replica: int
    epoch: int
    public_json: str
    signature: Signature


# ===========================================================================
# Sessions and statements
# ===========================================================================


def epoch_service_session(epoch: int) -> SessionId:
    """The service session of an epoch (epoch 0 keeps the legacy id)."""
    if epoch <= 0:
        return ("service", "service")
    return ("service", "service", epoch)


def canonical_public_json(public_dict: dict) -> str:
    """Deterministic serialization — every replica must sign the same
    bytes for the same configuration."""
    return json.dumps(public_dict, sort_keys=True, separators=(",", ":"))


def membership_statement(epoch: int, public_json: str) -> tuple:
    return ("membership", epoch, public_json)


def signed_membership_info(
    replica: int,
    epoch: int,
    public_dict: dict,
    signing_key: SigningKey,
    rng: random.Random,
) -> MembershipInfo:
    public_json = canonical_public_json(public_dict)
    return MembershipInfo(
        replica=replica,
        epoch=epoch,
        public_json=public_json,
        signature=signing_key.sign(membership_statement(epoch, public_json), rng),
    )


def verify_membership_info(info: object, trusted: PublicKeys) -> bool:
    """Check one replica's membership signature against keys the
    verifier already trusts (its current epoch's verify keys); a record
    whose fields do not have their declared types is refused."""
    if type(info) is not MembershipInfo or not admits(info):
        return False
    key = trusted.verify_keys.get(info.replica)
    if key is None:
        return False
    return key.verify(
        membership_statement(info.epoch, info.public_json), info.signature
    )


def adopt_membership(
    votes: dict[tuple[int, str], set[int]],
    trusted: PublicKeys,
    epoch: int,
    sender: int,
    info: object,
) -> tuple[int, PublicKeys] | None:
    """The one rule for believing a newer configuration, for a client
    and a replica that missed an epoch alike: count ``info`` when its
    signer sent it (a relayed record counts for no one), its signature
    verifies under the ``trusted`` keys and it is newer than ``epoch``;
    adopt once an honest-containing set signed the identical record.

    ``votes`` groups the signers by ``(epoch, public_json)`` and is
    cleared on adoption.  Returns the new ``(epoch, public keys)``, or
    ``None`` while there is nothing to adopt.  Continuing members keep
    their identity keys across epochs, so this chains trust from the
    configuration already believed to the new one — no single replica
    (and no departed one) can feed a fake membership.
    """
    if not verify_membership_info(info, trusted) or info.replica != sender:
        return None
    if info.epoch <= epoch:
        return None
    signers = votes.setdefault((info.epoch, info.public_json), set())
    signers.add(sender)
    if not trusted.quorum.contains_honest(frozenset(signers)):
        return None
    try:
        public = keystore.public_from_dict(json.loads(info.public_json))
    except (ValueError, KeyError, TypeError):
        return None
    votes.clear()
    return info.epoch, public


# ===========================================================================
# The Reconfigure operation
# ===========================================================================


@dataclass(frozen=True)
class ReconfigureRequest:
    """A parsed, structurally sound ``Reconfigure`` operation."""

    action: str
    party: int  # joining/leaving replica id (-1 for refresh)
    verify_key: int  # joiner's identity key (0 unless adding)
    host: str  # joiner's listen address ("" unless adding)
    port: int
    epoch: int  # the epoch this operation opens
    signer: int  # the current member vouching for the change


def _reconfigure_statement(
    action: str, party: int, verify_key: int, host: str, port: int, epoch: int
) -> tuple:
    return ("reconfig-op", action, party, verify_key, host, port, epoch)


def reconfigure_operation(
    action: str,
    epoch: int,
    signer: int,
    signing_key: SigningKey,
    rng: random.Random,
    party: int = -1,
    verify_key: int = 0,
    host: str = "",
    port: int = 0,
) -> tuple:
    """Build the signed flat-tuple operation a client submits."""
    if action not in ACTIONS:
        raise ValueError(f"unknown reconfigure action {action!r}")
    signature = signing_key.sign(
        _reconfigure_statement(action, party, verify_key, host, port, epoch), rng
    )
    return (
        RECONFIG_KIND,
        action,
        party,
        verify_key,
        host,
        port,
        epoch,
        signer,
        signature.commit,
        signature.response,
    )


# What ``reconfigure_operation`` builds, as exact types: no admission
# check reaches an ordered operation, and ``True == 1`` encodes apart.
_OPERATION_TYPES = (str, str, int, int, str, int, int, int, int, int)


def parse_reconfigure(operation: object) -> tuple[ReconfigureRequest, Signature] | None:
    """Structural parse; ``None`` for anything that is not a well-formed
    reconfigure operation (then it is just an application op)."""
    if type(operation) is not tuple or operation[:1] != (RECONFIG_KIND,):
        return None
    if tuple(map(type, operation)) != _OPERATION_TYPES:
        return None
    # The fields in ReconfigureRequest's order, then the signature's.
    return ReconfigureRequest(*operation[1:8]), Signature(*operation[8:])


@dataclass(frozen=True)
class Membership:
    """The configuration an executed history stands at: the epoch, the
    group, the quorum system and member ``i``'s identity verify key
    ``verify_keys[i]`` (members are the contiguous range ``0..n-1``).
    Derived from the genesis record and the ordered ``Reconfigure``
    operations alone (:func:`next_membership`), so the same history
    gives every honest replica the same one, live or replayed."""

    epoch: int
    group: SchnorrGroup
    quorum: QuorumSystem
    verify_keys: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.verify_keys)

    @classmethod
    def of(cls, epoch: int, public: PublicKeys) -> "Membership":
        """The membership a keystore's public bundle describes."""
        keys = tuple(public.verify_keys[member].h for member in range(public.n))
        return cls(epoch, public.group, public.quorum, keys)

    def successor(self, verify_keys: tuple[int, ...]) -> "Membership":
        """The next epoch's membership: these members, the same tolerance."""
        quorum = ThresholdQuorumSystem(n=len(verify_keys), t=self.quorum.t)
        return Membership(self.epoch + 1, self.group, quorum, verify_keys)


def next_membership(
    operation: object, membership: Membership
) -> tuple[ReconfigureRequest, Membership] | None:
    """The one verdict rule for a ``Reconfigure`` operation: the request
    and the membership it opens, or ``None`` when ``membership`` rejects
    it (malformed, wrong epoch, not signed by a member, a party id that
    breaks the contiguous range, a remove below ``3t + 1``, or a quorum
    system that is no threshold one — resharing needs a threshold).

    Pure: the same operation against the same membership yields the
    same answer at every replica, executed live or replayed.
    """
    parsed = parse_reconfigure(operation)
    if parsed is None or not isinstance(membership.quorum, ThresholdQuorumSystem):
        return None
    request, signature = parsed
    if request.action not in ACTIONS or request.epoch != membership.epoch + 1:
        return None
    if not 0 <= request.signer < membership.n:
        return None
    key = VerifyKey(membership.group, membership.verify_keys[request.signer])
    if not key.verify(_reconfigure_statement(*operation[1:7]), signature):
        return None
    members = membership.verify_keys
    if request.action == "add":
        if request.party != membership.n:
            return None  # membership stays the contiguous range 0..n
        if not membership.group.is_member(request.verify_key):
            return None
        if not request.host or not 0 < request.port < 65536:
            return None
        members += (request.verify_key,)
    elif request.action == "remove":
        if request.party != membership.n - 1 or request.party <= membership.quorum.t:
            return None  # not the highest id, or no threshold system is left
        members = members[:-1]
    else:  # refresh
        if request.party != -1 or request.verify_key != 0:
            return None
        if request.host != "" or request.port != 0:
            return None
    successor = membership.successor(members)
    if not successor.quorum.satisfies_q3:
        return None  # a remove below 3t + 1 breaks the quorum assumptions
    return request, successor


# ===========================================================================
# The tombstone left at a closed epoch's session
# ===========================================================================


class EpochTombstone(Protocol):
    """Answers traffic sent to a closed epoch's service session.

    Submissions get an :class:`EpochError` pointing at the current
    epoch; membership queries (and recovery probes from replicas that
    restarted with stale state) get the signed membership record.  The
    tombstone never touches the state machine — the closed epoch is
    read-only history.
    """

    def __init__(self, info: MembershipInfo) -> None:
        self.info = info

    def on_start(self, ctx: Context) -> None:  # pragma: no cover - trivial
        pass

    def admits(self, ctx: Context, child: SessionId) -> bool:
        # Nothing under a closed session is spawned again: the broadcast
        # moved to the new session (``rebase``), so its traffic waits
        # for nobody.
        return False

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        from .replica import (
            RecoverQuery,
            SubmitEncrypted,
            SubmitRequest,
            SubmitUnordered,
        )

        if isinstance(
            message, (SubmitRequest, SubmitUnordered, SubmitEncrypted)
        ):
            ctx.send(
                sender, EpochError(replica=ctx.party, epoch=self.info.epoch)
            )
        elif isinstance(message, (MembershipQuery, RecoverQuery)):
            ctx.send(sender, self.info)
