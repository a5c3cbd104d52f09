"""Optimistic atomic broadcast (Section 6, "Optimistic Protocols").

The paper: *"Optimistic protocols run very fast if no malicious
adversary is at work and all messages are delivered promptly.  If a
problem is detected (typically because liveness is violated), they may
switch into a more secure mode ... In our Byzantine context, one has to
make sure that safety is never violated."*  Kursawe and Shoup [23]
designed such a protocol; this module implements that idea on top of
this repository's stack:

**Fast path** (deterministic, leader-based, two certificate phases):

1. clients'/servers' payloads are forwarded to the epoch leader;
2. the leader assigns sequence numbers and broadcasts signed
   ``ORDER(seq, payload)`` messages;
3. every server broadcasts an ACK signature share; a strong quorum of
   shares forms a transferable *prepare certificate* — two conflicting
   payloads can never both be prepared for one sequence number;
4. servers that hold the prepare certificate broadcast a COMMIT share;
   a strong quorum of commit shares delivers (in sequence order).

**Fallback** (randomized, asynchronous — safety never at risk):

When progress stops (a watchdog the deployment drives however it
likes — *safety is independent of when or whether it fires*), servers
complain; complaints from an honest-containing set move everyone into
recovery.  Each server signs a *state*: its longest prepared prefix
with certificates.  A quorum of signed states is run through the
multi-valued Byzantine agreement with external validity; the decided
state set fixes the definitive prefix.  Because delivery required a
strong quorum of commit shares, every delivered payload is prepared at
an honest member of any quorum of states, so the decided prefix extends
every honest delivery — total order is preserved.  Afterwards the
instance runs in *pessimistic* mode: the randomized atomic broadcast
of :mod:`repro.core.atomic_broadcast`.

The measured contrast (benchmark E11): the fast path costs a fraction
of the randomized protocol per payload; under a leader-starving
adversary it stops, falls back, and continues correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from ..crypto.hashing import hash_bytes
from ..crypto.schnorr import Signature
from ..crypto.threshold_sig import QuorumCertificate
from .atomic_broadcast import AtomicBroadcast
from .multivalued_agreement import MultiValuedAgreement, MvbaDecision
from .protocol import Context, Protocol, SessionId
from .share_screen import ShareScreen

__all__ = [
    "OptForward",
    "OptOrder",
    "OptAck",
    "OptCommit",
    "OptComplain",
    "OptState",
    "OptimisticAtomicBroadcast",
    "opt_abc_session",
]


@register
@dataclass(frozen=True)
class OptForward:
    payload: Hashable


@register
@dataclass(frozen=True)
class OptOrder:
    seq: int
    payload: Hashable
    signature: Signature


@register
@dataclass(frozen=True)
class OptAck:
    seq: int
    digest: bytes
    share: Signature


@register
@dataclass(frozen=True)
class OptCommit:
    seq: int
    digest: bytes
    share: Signature


@register
@dataclass(frozen=True)
class OptComplain:
    pass


@register
@dataclass(frozen=True)
class OptState:
    entries: tuple  # ((seq, payload, prepare_cert), ...) contiguous from 1
    signature: Signature


# ACK/COMMIT shares may overtake their ORDER; they are kept only for
# sequence numbers this close to the next delivery (an honest leader is
# never further ahead of a replica that still receives its traffic).
_SEQ_HORIZON = 4096


def opt_abc_session(tag: object = 0) -> SessionId:
    return ("opt-abc", tag)


def _digest(payload: Hashable) -> bytes:
    return hash_bytes("opt-digest", payload)


def _order_statement(session: SessionId, seq: int, payload: Hashable) -> tuple:
    return ("opt-order", session, seq, payload)


def _ack_statement(session: SessionId, seq: int, digest: bytes) -> tuple:
    return ("opt-ack", session, seq, digest)


def _commit_statement(session: SessionId, seq: int, digest: bytes) -> tuple:
    return ("opt-commit", session, seq, digest)


def _state_statement(session: SessionId, entries: tuple) -> tuple:
    return ("opt-state", session, entries)


class OptimisticAtomicBroadcast(Protocol):
    """Fast-when-friendly atomic broadcast with a safe randomized fallback."""

    LEADER = 0

    def __init__(
        self,
        on_deliver: Callable[[Hashable, str], None] | None = None,
        watchdog_limit: int = 200,
    ) -> None:
        self.on_deliver = on_deliver
        self.watchdog_limit = watchdog_limit
        self.mode = "fast"  # fast -> recovering -> pessimistic
        self.queue: list[Hashable] = []
        self.delivered: set[Hashable] = set()
        self.delivered_log: list[tuple[Hashable, str]] = []
        # Leader bookkeeping.
        self._next_seq = 1
        self._ordered_payloads: set[Hashable] = set()
        # Replica bookkeeping (fast path).  One screen per phase (the
        # message type) and *ordered* sequence number; a share that
        # overtook its ORDER waits in ``early``, one slot per phase,
        # sequence number within the horizon and sender — a peer cannot
        # make this party remember keys of the peer's choosing.
        self.orders: dict[int, Hashable] = {}
        self.screens: dict[tuple[type, int], ShareScreen[Signature]] = {}
        self.early: dict[tuple[type, int], dict[int, OptAck | OptCommit]] = {}
        self.prepared: dict[int, tuple[Hashable, QuorumCertificate]] = {}
        self.committed: dict[int, Hashable] = {}
        self.commit_share_sent: set[int] = set()
        self.next_delivery = 1
        # Fallback bookkeeping.
        self.complaints: set[int] = set()
        self.complained = False
        self.states: dict[int, tuple] = {}
        self._mvba_started = False
        self._watchdog = 0
        # Pessimistic inner protocol.
        self.inner = AtomicBroadcast()

    # -- input ------------------------------------------------------------------

    def submit(self, ctx: Context, payload: Hashable) -> None:
        if payload in self.delivered or payload in self.queue:
            return
        self.queue.append(payload)
        if self.mode == "fast":
            ctx.broadcast(OptForward(payload))
        elif self.mode == "pessimistic":
            self.inner.submit(ctx, payload)

    def tick(self, ctx: Context) -> None:
        """Optional external watchdog pulse (deployments may drive this
        off local clocks).  Only liveness of the *fallback trigger*
        depends on it; safety never does."""
        self._note_activity(ctx, amount=1)

    # -- dispatch -----------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.inner.on_deliver = lambda payload, rnd: self._deliver(
            ctx, payload, f"pessimistic-round-{rnd}"
        )

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, OptForward):
            self._on_forward(ctx, sender, message.payload)
        elif isinstance(message, OptOrder):
            self._on_order(ctx, sender, message)
        elif isinstance(message, OptAck):
            self._on_ack(ctx, sender, message)
        elif isinstance(message, OptCommit):
            self._on_commit(ctx, sender, message)
        elif isinstance(message, OptComplain):
            self._on_complain(ctx, sender)
        elif isinstance(message, OptState):
            self._on_state(ctx, sender, message)
        else:
            # Pessimistic-mode traffic (AbcProposal etc.) and the junk a
            # corrupted server may send.
            self.inner.on_message(ctx, sender, message)
        self._note_activity(ctx, amount=1)

    # -- fast path ----------------------------------------------------------------

    def _on_forward(self, ctx: Context, sender: int, payload: Hashable) -> None:
        if self.mode != "fast":
            if self.mode == "pessimistic" and isinstance(payload, Hashable):
                # Keep accepting inputs after the switch.
                self.inner.submit(ctx, payload)
            return
        if payload not in self.queue and payload not in self.delivered:
            self.queue.append(payload)
        if ctx.party != self.LEADER or payload in self._ordered_payloads:
            return
        self._ordered_payloads.add(payload)
        seq = self._next_seq
        self._next_seq += 1
        signature = ctx.keys.signing_key.sign(
            _order_statement(ctx.session, seq, payload), ctx.rng, ctx.verified
        )
        ctx.broadcast(OptOrder(seq, payload, signature))

    def _on_order(self, ctx: Context, sender: int, message: OptOrder) -> None:
        if self.mode != "fast" or sender != self.LEADER:
            return
        seq = message.seq
        if not isinstance(seq, int) or seq < 1 or seq in self.orders:
            return
        key = ctx.public.verify_keys[self.LEADER]
        if not key.verify(
            _order_statement(ctx.session, seq, message.payload),
            message.signature,
            ctx.verified,
        ):
            return
        self.orders[seq] = message.payload
        digest = _digest(message.payload)
        for phase in (OptAck, OptCommit):
            for peer, held in sorted(self.early.pop((phase, seq), {}).items()):
                if held.digest == digest:
                    self._screen(phase, seq).offer(peer, held.share)
        share = ctx.keys.cert_strong.sign_share(
            _ack_statement(ctx.session, seq, digest), ctx.rng, ctx.verified
        )
        ctx.broadcast(OptAck(seq, digest, share))

    def _screen(self, phase: type, seq: int) -> ShareScreen[Signature]:
        return self.screens.setdefault((phase, seq), ShareScreen())

    def _strong_quorum_of(
        self, ctx: Context, sender: int, message: OptAck | OptCommit, statement: tuple
    ) -> dict[int, Signature] | None:
        """Take one ACK/COMMIT share on ``statement``; the verified
        shares once they form a strong quorum.  Shares on anything but
        the leader's ORDER are dropped."""
        seq, digest = message.seq, message.digest
        if self.mode != "fast" or not isinstance(seq, int) or not isinstance(digest, bytes):
            return None
        payload = self.orders.get(seq)
        if payload is None:
            if self.next_delivery <= seq < self.next_delivery + _SEQ_HORIZON:
                self.early.setdefault((type(message), seq), {}).setdefault(sender, message)
            return None
        if _digest(payload) != digest:
            return None
        screen = self._screen(type(message), seq)
        screen.offer(sender, message.share)
        return screen.qualified_shares(
            ctx.quorum.is_strong_quorum,
            lambda held: ctx.public.cert_strong.verify_shares(statement, held, ctx.verified),
        )

    def _on_ack(self, ctx: Context, sender: int, message: OptAck) -> None:
        seq, digest = message.seq, message.digest
        statement = _ack_statement(ctx.session, seq, digest)
        shares = self._strong_quorum_of(ctx, sender, message, statement)
        if shares is not None:
            certificate = ctx.public.cert_strong.combine(statement, shares, ctx.verified)
            self.prepared[seq] = (self.orders[seq], certificate)
            commit_share = ctx.keys.cert_strong.sign_share(
                _commit_statement(ctx.session, seq, digest), ctx.rng, ctx.verified
            )
            self.commit_share_sent.add(seq)
            ctx.broadcast(OptCommit(seq, digest, commit_share))

    def _on_commit(self, ctx: Context, sender: int, message: OptCommit) -> None:
        statement = _commit_statement(ctx.session, message.seq, message.digest)
        if self._strong_quorum_of(ctx, sender, message, statement) is not None:
            self.committed[message.seq] = self.orders[message.seq]
            self._drain_fast(ctx)

    def _drain_fast(self, ctx: Context) -> None:
        while self.next_delivery in self.committed:
            payload = self.committed[self.next_delivery]
            self._deliver(ctx, payload, f"fast-seq-{self.next_delivery}")
            self.next_delivery += 1

    # -- watchdog & complaints -----------------------------------------------------

    def _note_activity(self, ctx: Context, amount: int) -> None:
        if self.mode != "fast" or self.complained:
            return
        pending = [p for p in self.queue if p not in self.delivered]
        if not pending:
            self._watchdog = 0
            return
        self._watchdog += amount
        if self._watchdog >= self.watchdog_limit:
            self._complain(ctx)

    def _complain(self, ctx: Context) -> None:
        if self.complained:
            return
        self.complained = True
        ctx.broadcast(OptComplain())

    def _on_complain(self, ctx: Context, sender: int) -> None:
        self.complaints.add(sender)
        if ctx.quorum.contains_honest(self.complaints):
            # An honest server complained: join the complaint and start
            # recovery once everyone must have noticed.
            self._complain(ctx)
            self._enter_recovery(ctx)

    # -- fallback -----------------------------------------------------------------

    def _enter_recovery(self, ctx: Context) -> None:
        if self.mode != "fast":
            return
        self.mode = "recovering"
        entries = []
        for seq in range(1, len(self.prepared) + 2):
            if seq not in self.prepared:
                break
            payload, certificate = self.prepared[seq]
            entries.append((seq, payload, certificate))
        entries_tuple = tuple(entries)
        signature = ctx.keys.signing_key.sign(
            _state_statement(ctx.session, entries_tuple), ctx.rng, ctx.verified
        )
        ctx.broadcast(OptState(entries_tuple, signature))

    def _state_valid(self, ctx: Context, sender: int, message: OptState) -> bool:
        key = ctx.public.verify_keys.get(sender)
        if key is None or not isinstance(message.entries, tuple):
            return False
        if not key.verify(
            _state_statement(ctx.session, message.entries),
            message.signature,
            ctx.verified,
        ):
            return False
        return self._entries_valid(ctx, message.entries)

    def _entries_valid(self, ctx: Context, entries: tuple) -> bool:
        for index, entry in enumerate(entries):
            if not (isinstance(entry, tuple) and len(entry) == 3):
                return False
            seq, payload, certificate = entry
            if seq != index + 1:
                return False
            statement = _ack_statement(ctx.session, seq, _digest(payload))
            if not isinstance(certificate, QuorumCertificate):
                return False
            if not ctx.public.cert_strong.verify(
                statement, certificate, ctx.verified
            ):
                return False
        return True

    def _on_state(self, ctx: Context, sender: int, message: OptState) -> None:
        if sender in self.states or not self._state_valid(ctx, sender, message):
            return
        # A valid state is recorded in every mode (it may arrive before
        # this server noticed the complaints) and doubles as a complaint.
        self.states[sender] = (sender, message.entries, message.signature)
        self.complaints.add(sender)
        if self.mode == "fast" and ctx.quorum.contains_honest(self.complaints):
            self._complain(ctx)
            self._enter_recovery(ctx)
        if self.mode != "recovering" or self._mvba_started:
            return
        if not ctx.quorum.is_quorum(self.states):
            return
        self._mvba_started = True
        proposal = tuple(sorted(self.states.values()))
        session: SessionId = ("mvba", (ctx.session, "fallback"))
        ctx.spawn(
            session,
            MultiValuedAgreement(proposal, predicate=self._proposal_predicate(ctx)),
            on_output=lambda decision: self._on_fallback_decision(ctx, decision),
        )

    def _proposal_predicate(self, ctx: Context) -> Callable[[object], bool]:
        def predicate(value: object) -> bool:
            if not isinstance(value, tuple) or not value:
                return False
            senders = []
            for item in value:
                if not (isinstance(item, tuple) and len(item) == 3):
                    return False
                sender, entries, signature = item
                if not self._state_valid(ctx, sender, OptState(entries, signature)):
                    return False
                senders.append(sender)
            if len(set(senders)) != len(senders):
                return False
            return ctx.quorum.is_quorum(senders)

        return predicate

    def _on_fallback_decision(self, ctx: Context, decision: object) -> None:
        if not isinstance(decision, MvbaDecision) or self.mode != "recovering":
            return
        best: tuple = ()
        for _sender, entries, _sig in decision.value:
            if len(entries) > len(best):
                best = entries
        for seq, payload, _cert in best:
            self._deliver(ctx, payload, f"fallback-seq-{seq}")
        self.mode = "pessimistic"
        for payload in list(self.queue):
            if payload not in self.delivered:
                self.inner.submit(ctx, payload)

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, ctx: Context, payload: Hashable, origin: str) -> None:
        if payload in self.delivered:
            return
        self.delivered.add(payload)
        self.delivered_log.append((payload, origin))
        self.queue = [p for p in self.queue if p != payload]
        if self.on_deliver is not None:
            self.on_deliver(payload, origin)
