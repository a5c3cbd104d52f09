"""Atomic broadcast (Section 3) — total order via multi-valued agreement.

Follows the round structure the paper describes (after Chandra-Toueg
[12]): the parties proceed in global rounds; in round ``r``

1. every party assembles a *batch* of payloads (bounded by
   :class:`AbcConfig` — a payload-count cap and a canonical-encoding
   byte budget), digitally signs the batch *digest* and sends batch and
   signature to all others (``PROPOSAL``);
2. once properly signed proposals from a quorum (generalized ``n-t``)
   of distinct parties arrived, the party proposes the list of
   ``(proposer, digest, signature)`` entries to a multi-valued
   Byzantine agreement whose *external validity* predicate accepts
   exactly such lists — so whatever is decided consists of authentic,
   signed proposals, at least an honest-containing set of which come
   from honest parties.  Because signatures and MVBA inputs carry
   digests, neither scales with batch bytes;
3. all payloads in the batches behind the decided digest list are
   delivered in a deterministic order (by proposer id, then position
   within the batch), deduplicated across rounds.  A digest whose batch
   has not arrived yet is fetched first (``AbcBatchRequest``); the
   validity predicate refuses to endorse a candidate before holding
   every referenced batch, so any commit certificate doubles as an
   availability proof — a quorum, hence an honest-containing set,
   stored the bytes — and the fetch always terminates.

Pipelining: up to ``pipeline_depth`` rounds run concurrently — round
``k+1``'s proposal exchange and quorum collection proceed while round
``k``'s agreement is still deciding.  Each concurrent MVBA is tagged
with its round number inside the session id, so instances never
collide.  Decisions arriving out of order are buffered and applied
strictly in round order, which keeps delivery identical at every
honest party.

Closing: :meth:`~AtomicBroadcast.close`, called while a payload is being
delivered (an accepted epoch change, docs/RECONFIGURATION.md), makes it
the last one this session orders.  The rest of its round goes back to
the queue undelivered — the same payloads at every honest party, since
the decided batches are the same — the round still ends
(``on_round_end``), and the instance starts, agrees on and delivers
nothing more until :meth:`~AtomicBroadcast.rebase` reopens it in the
successor session, where the queue rides the next round.

Liveness and fairness: a payload submitted to an honest-containing set
of honest parties appears in every candidate list of the next round
(any quorum of proposers intersects the holders in an honest party),
so the adversary cannot delay it once it is that widely known — the
paper's fairness claim, measured by experiment E6.

A proposal inside the window, the first from its sender for that round,
is *recorded* on arrival (the channel authenticates the sender); its
signature, which only makes it transferable, is checked before the first
use that relies on it: it teaches this party a payload, starts a round
this party had not started, enters this party's candidate list at the
quorum, or lets the list predicate accept a peer's entry by comparison
(lag evidence beyond the window is checked on arrival).  One that fails
is dropped and its sender excluded from the round.

Adoption: a recorded proposal is also a submission of its payloads.
Whatever in it is neither delivered nor
queued joins this party's queue before it decides what to sign, so a
party that learns a request from a peer's round-``r`` proposal ahead of
the client's own copy proposes it in round ``r`` too, its own in-flight
mask covers it, and the client's later copy is a no-op in
:meth:`~AtomicBroadcast.submit`: a lone request rides one round on
every schedule, not an empty batch now and the request one round later.
This only strengthens the fairness argument (every honest party that
learns ``m`` proposes ``m``, so every decidable list carries it).  The
converse cut — leaving out of the own batch what a *peer's* undelivered
proposal already carries — is not taken: an honest party that knows
``m`` would be omitting it on a possibly Byzantine party's word.  What
a Byzantine sender can have adopted is bounded: one recorded batch per
round of the window, and those are payloads it could have had ordered
anyway (its own proposal may be in the decided list).

A batch is a tuple of *hashable* payloads (delivery deduplicates by
set membership); anything else is refused where a batch would enter a
round's record, so no honest party ever endorses a candidate list that
references one.

Round records: all this party keeps about round ``r`` is one
:class:`_Round` in ``rounds[r]``, dropped ``_BUFFER_SLACK`` rounds after
delivery or by :meth:`~AtomicBroadcast.rebase`; an agreement holds the
record it started on (docs/PROTOCOLS.md, "Round records", "Fetching").

A party whose queue is still empty after that joins every round it
sees evidence for (a valid proposal with a higher round number — one
that carried nothing, or nothing new) with an empty batch, so idle
parties never block the quorum.  Proposals further ahead than
the pipeline window (depth plus a small slack) are *not* buffered —
a Byzantine sender can no longer stash one signed proposal per round
across the whole horizon — but a validly signed proposal that far
ahead is evidence this party fell behind; once an honest-containing
set of distinct signers provided such evidence, the ``on_lag`` hook
fires so the host can trigger state transfer (Section 6).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from ..crypto import hashing
from ..crypto.schnorr import Signature
from .multivalued_agreement import MultiValuedAgreement, MvbaDecision
from .protocol import Context, Protocol, SessionId

__all__ = [
    "AbcBatch",
    "AbcBatchRequest",
    "AbcConfig",
    "AbcProposal",
    "AbcRejoin",
    "AtomicBroadcast",
    "abc_session",
    "batch_digest",
    "proposal_statement",
]

_ROUND_HORIZON = 1024
# Canonical-encoding byte budget per batch; the first payload always
# fits, so an oversized payload still ships alone rather than starving.
_MAX_BATCH_BYTES = 1 << 16
# Future rounds beyond the pipeline window whose proposals are still
# buffered; anything further ahead is dropped and counted as lag
# evidence instead.  Recently delivered rounds are kept as deep.
_BUFFER_SLACK = 8


@dataclass(frozen=True)
class AbcConfig:
    """Throughput knobs (docs/PERFORMANCE.md, "Throughput: batching &
    pipelining").

    ``max_batch``: most payloads a single proposal may carry.
    ``pipeline_depth``: rounds allowed in flight beyond the last
    delivered one (1 reproduces the paper's one-round-at-a-time
    schedule).

    Out-of-range values raise :class:`ValueError` here rather than
    wedging the protocol later (a zero-depth pipeline never proposes).
    """

    max_batch: int = 64
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        for name in ("max_batch", "pipeline_depth"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"AbcConfig: {name}={value} must be >= 1")

    @classmethod
    def overriding(cls, **knobs: int | None) -> "AbcConfig | None":
        """The config with each knob that is set (not None) in place of
        its default, or None when none is — the protocol defaults."""
        overrides = {name: value for name, value in knobs.items() if value is not None}
        return cls(**overrides) if overrides else None


@register
@dataclass(frozen=True)
class AbcProposal:
    round: int
    batch: tuple
    signature: Signature


@register
@dataclass(frozen=True)
class AbcBatchRequest:
    """Ask peers for the batch behind a digest referenced by a round."""

    round: int
    digest: bytes


@register
@dataclass(frozen=True)
class AbcBatch:
    """Answer to :class:`AbcBatchRequest`; self-authenticating via the
    digest, so no signature is needed."""

    digest: bytes
    batch: tuple


@register
@dataclass(frozen=True)
class AbcRejoin:
    """A recovered party asks peers to re-send their in-flight
    proposals (bounded buffering dropped the ones that arrived while it
    was down)."""

    round: int


def abc_session(tag: object = 0) -> SessionId:
    return ("abc", tag)


def batch_digest(batch: tuple) -> bytes:
    """Collision-resistant digest over the canonical batch encoding."""
    return hashing.hash_bytes("abc-batch", batch)


def proposal_statement(session: SessionId, r: int, digest: bytes) -> tuple:
    return ("abc-proposal", session, r, digest)


def _well_formed(batch: object) -> bool:
    """A batch is a tuple of hashable payloads."""
    if not isinstance(batch, tuple):
        return False
    try:
        hash(batch)
    except TypeError:
        return False
    return True


class _Round:
    """Everything this party keeps about one round (module docstring,
    "Round records")."""

    __slots__ = (
        "number", "proposal", "proposals", "verdicts", "batches", "requested",
        "askers", "agreement_started", "decision", "__weakref__",
    )

    def __init__(self, number: int) -> None:
        self.number = number
        self.proposal: AbcProposal | None = None  # ours, signed
        # Recorded proposals by sender, and their signatures' verdicts.
        self.proposals: dict[int, tuple[bytes, Signature]] = {}
        self.verdicts: dict[int, bool] = {}
        self.batches: dict[bytes, tuple] = {}
        self.requested: set[bytes] = set()
        # Digests peers asked for before this party held them: who asked.
        self.askers: dict[bytes, set[int]] = {}
        self.agreement_started = False
        self.decision: tuple | None = None


class AtomicBroadcast(Protocol):
    """Long-lived totally-ordered broadcast; delivers via a callback.

    ``on_deliver(payload, round)`` is invoked exactly once per payload,
    in the same order at every honest party; ``on_round_end(round)``
    (optional) after a round's last one, so where a round's deliveries
    end is ordered state too.  ``on_lag()`` (optional)
    fires when an honest-containing set of signers is provably far
    ahead of this party's round window.
    """

    def __init__(
        self,
        on_deliver: Callable[[Hashable, int], None] | None = None,
        config: AbcConfig | None = None,
    ) -> None:
        self.on_deliver = on_deliver
        self.on_round_end: Callable[[int], None] | None = None
        self.on_lag: Callable[[], None] | None = None
        self.config = config if config is not None else AbcConfig()
        self.queue: list[Hashable] = []
        self.queued: set[Hashable] = set()
        self.delivered: set[Hashable] = set()
        self.delivered_log: list[tuple[Hashable, int]] = []
        self.round = 0  # last delivered round
        # Highest round this party signed a proposal for.  Never
        # regresses — an honest party must not sign two different
        # batches for the same round number, even across recovery.
        self.highest_started = 0
        self.in_flight: set[Hashable] = set()
        # Set by close(), cleared by rebase(); _after_close is what
        # close() runs once the round being delivered has ended.
        self.closed = False
        self._delivering = False
        self._after_close: Callable[[], None] | None = None
        self.rounds: dict[int, _Round] = {}
        self.lag_reports: dict[int, int] = {}
        self._lag_notified = False
        self.payloads_delivered = 0
        self.rounds_delivered = 0
        self._occupancy_sum = 0
        self._occupancy_samples = 0

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Throughput counters for the e2e bench (docs/PERFORMANCE.md)."""
        rounds = self.rounds_delivered
        mean_batch = self.payloads_delivered / rounds if rounds else 0.0
        occupancy = (
            self._occupancy_sum / self._occupancy_samples
            if self._occupancy_samples
            else 0.0
        )
        return {
            "rounds": float(rounds),
            "delivered": float(self.payloads_delivered),
            "mean_batch": mean_batch,
            "pipeline_occupancy": occupancy,
        }

    def _window(self) -> int:
        return self.config.pipeline_depth + _BUFFER_SLACK

    def _round(self, r: int) -> _Round:
        rec = self.rounds.get(r)
        if rec is None:
            rec = self.rounds[r] = _Round(r)
        return rec

    # -- input ------------------------------------------------------------------

    def submit(self, ctx: Context, payload: Hashable) -> None:
        """a-broadcast: enqueue a payload for total ordering (O(1))."""
        if self._enqueue(payload):
            self._maybe_start_rounds(ctx)

    def _enqueue(self, payload: Hashable) -> bool:
        if payload in self.delivered or payload in self.queued:
            return False
        self.queue.append(payload)
        self.queued.add(payload)
        return True

    # -- round lifecycle -----------------------------------------------------------

    def _select_batch(self) -> tuple:
        batch: list[Hashable] = []
        size = 0
        for payload in self.queue:
            if len(batch) >= self.config.max_batch:
                break
            if payload in self.delivered or payload in self.in_flight:
                continue
            cost = len(hashing.encode(payload))
            if batch and size + cost > _MAX_BATCH_BYTES:
                break  # stop rather than skip ahead: keeps FIFO fairness
            batch.append(payload)
            size += cost
        return tuple(batch)

    def _maybe_start_rounds(self, ctx: Context) -> None:
        if self.closed:
            return
        if self.highest_started < self.round:
            self.highest_started = self.round
        while self.highest_started < self.round + self.config.pipeline_depth:
            rec = self._round(self.highest_started + 1)
            batch = self._select_batch()
            if not batch and not any(self._checked(ctx, rec, j) for j in sorted(rec.proposals)):
                return
            self.highest_started = rec.number
            digest = batch_digest(batch)
            statement = proposal_statement(ctx.session, rec.number, digest)
            signature = ctx.keys.signing_key.sign(statement, ctx.rng, ctx.verified)
            rec.proposal = AbcProposal(rec.number, batch, signature)
            self._hold(ctx, rec, digest, batch)
            self.in_flight.update(batch)
            ctx.broadcast(rec.proposal)
            self._maybe_start_agreement(ctx, rec)

    def resume_at(self, ctx: Context, round_number: int) -> None:
        """Rejoin the round structure after recovery (Section 6).

        Fast-forward past everything the transferred log settled, drop
        the records that fall behind it, and ask the peers to re-send
        their still-in-flight proposals — bounded buffering means the
        ones that arrived while this party lagged were not kept.  Any
        round this party already signed a proposal for stays off-limits
        for re-proposal (``highest_started`` never regresses), so
        recovery can never make an honest party equivocate.
        """
        self.round = max(self.round, round_number)
        if self.highest_started < self.round:
            self.highest_started = self.round
        self._settle()
        self._refresh_lag()
        ctx.broadcast(AbcRejoin(self.round))
        self._maybe_start_rounds(ctx)

    def close(self, then: Callable[[], None]) -> None:
        """End this session's ordering at the payload being delivered
        (module docstring, "Closing").  ``then`` runs once that round's
        delivery has returned — at once outside a delivery, as when a
        replayed history closes the session — so whatever it does (enter
        the next epoch) never runs inside :meth:`_try_deliver`."""
        self.closed = True
        if self._delivering:
            self._after_close = then
        else:
            then()

    def rebase(self, ctx: Context) -> None:
        """Carry this broadcast onto a successor session (epoch switch),
        reopening it if :meth:`close` ended the old one.

        The session that hosted it was closed and replaced by a
        tombstone, so protocol traffic for any round still in flight —
        proposal exchange, agreement sub-protocols — now lands on the
        tombstone and those rounds can never decide.  Drop the records
        above the last *delivered* round and re-propose the undelivered
        payloads under ``ctx``'s (new) session.  Delivered history is
        untouched and round numbering continues where it left off, so
        journal rounds stay monotone across the switch.  Restarting a
        round number this party already signed for is not
        equivocation: proposal statements bind the session id, so the
        same round under a different session is a different statement.
        A straggler agreement from the closed session that completes
        after the switch holds a dropped record, so :meth:`_on_decision`
        ignores it rather than racing the restarted round.
        """
        base = self.round
        self.closed = False
        self.highest_started = base
        for stale in [r for r in self.rounds if r > base]:
            del self.rounds[stale]
        self._sync_in_flight()
        self._refresh_lag()
        self._maybe_start_rounds(ctx)

    # -- message handling ---------------------------------------------------------

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, AbcProposal):
            self._on_proposal(ctx, sender, message)
        elif isinstance(message, AbcBatchRequest):
            self._on_batch_request(ctx, sender, message)
        elif isinstance(message, AbcBatch):
            self._on_batch(ctx, sender, message)
        elif isinstance(message, AbcRejoin):
            self._on_rejoin(ctx, sender, message)

    def _on_proposal(
        self, ctx: Context, sender: int, message: AbcProposal
    ) -> None:
        r = message.round
        if not isinstance(r, int) or not self.round < r <= self.round + _ROUND_HORIZON:
            return
        if not _well_formed(message.batch):
            return
        digest = batch_digest(message.batch)
        key = ctx.public.verify_keys.get(sender)
        if key is None:
            return
        if r > self.round + self._window():
            # Bounded buffering (a Byzantine sender can no longer stash
            # one proposal per round across the whole horizon) — but a
            # validly signed proposal this far ahead is lag evidence.
            statement = proposal_statement(ctx.session, r, digest)
            if key.verify(statement, message.signature, ctx.verified):
                self.lag_reports[sender] = max(self.lag_reports.get(sender, 0), r)
                self._maybe_report_lag(ctx)
            return
        rec = self._round(r)
        if rec.verdicts.get(sender) is False:
            return  # excluded from this round: its recorded one failed
        if sender not in rec.proposals:
            rec.proposals[sender] = (digest, message.signature)
            # Adoption (module docstring): what the proposal taught this
            # party goes into its own batch for the round it now joins.
            taught = [p for p in message.batch if p not in self.delivered and p not in self.queued]
            if taught and self._checked(ctx, rec, sender):
                for payload in taught:
                    self._enqueue(payload)
            self._hold(ctx, rec, digest, message.batch)
        self._maybe_start_rounds(ctx)
        self._maybe_start_agreement(ctx, rec)
        self._retry_predicates(ctx)
        self._try_deliver(ctx)

    def _checked(self, ctx: Context, rec: _Round, j: int) -> bool:
        """Whether ``j``'s recorded proposal in ``rec`` is signed, checked
        once; a bad one is dropped and ``j`` excluded from the round (a
        bad signature gains a sender nothing a good one would not)."""
        verdicts = rec.verdicts
        if j not in verdicts:
            digest, signature = rec.proposals[j]
            verdicts[j] = ctx.public.verify_keys[j].verify(
                proposal_statement(ctx.session, rec.number, digest), signature, ctx.verified
            )
            if not verdicts[j]:
                del rec.proposals[j]
        return verdicts[j]

    def _hold(self, ctx: Context, rec: _Round, digest: bytes, batch: tuple) -> None:
        """Keep ``batch`` in ``rec``, and send it to whoever asked early."""
        if digest not in rec.batches:
            rec.batches[digest] = batch
            for asker in sorted(rec.askers.pop(digest, ())):
                ctx.send(asker, AbcBatch(digest, batch))

    def _on_batch_request(
        self, ctx: Context, sender: int, message: AbcBatchRequest
    ) -> None:
        r, digest = message.round, message.digest
        if not isinstance(r, int) or not isinstance(digest, bytes):
            return
        if r > self.round + self._window():
            return
        rec = self._round(r) if r > self.round else self.rounds.get(r)
        if rec is None:
            return
        if digest in rec.batches or self._copy(ctx, rec, digest):
            ctx.send(sender, AbcBatch(digest, rec.batches[digest]))
        elif r > self.round and (digest in rec.askers or len(rec.askers) < ctx.n * ctx.n):
            rec.askers.setdefault(digest, set()).add(sender)

    def _on_batch(self, ctx: Context, sender: int, message: AbcBatch) -> None:
        digest = message.digest
        if not isinstance(digest, bytes) or not _well_formed(message.batch):
            return
        wanting = [rec for _r, rec in sorted(self.rounds.items()) if digest in rec.requested]
        if not wanting:
            return  # only store what we asked for: bounded memory
        if batch_digest(message.batch) != digest:
            return
        for rec in wanting:
            self._hold(ctx, rec, digest, message.batch)
        self._retry_predicates(ctx)
        self._try_deliver(ctx)

    def _on_rejoin(self, ctx: Context, sender: int, message: AbcRejoin) -> None:
        base = message.round
        if not isinstance(base, int):
            return
        for r in sorted(self.rounds):
            own = self.rounds[r].proposal
            if r > base and own is not None:
                ctx.send(sender, own)

    def _maybe_report_lag(self, ctx: Context) -> None:
        if self.on_lag is None or self._lag_notified:
            return
        if not ctx.quorum.contains_honest(set(self.lag_reports)):
            return
        self._lag_notified = True
        self.on_lag()

    def _refresh_lag(self) -> None:
        horizon = self.round + self._window()
        self.lag_reports = {
            s: self.lag_reports[s]
            for s in sorted(self.lag_reports)
            if self.lag_reports[s] > horizon
        }
        if not self.lag_reports:
            self._lag_notified = False

    # -- agreement ----------------------------------------------------------------

    def _maybe_start_agreement(self, ctx: Context, rec: _Round) -> None:
        r = rec.number
        if rec.agreement_started or self.closed:
            return
        if r <= self.round or r > self.highest_started:
            return
        collected = rec.proposals
        if not ctx.quorum.is_quorum(collected) or not ctx.quorum.is_quorum(
            [j for j in sorted(collected) if self._checked(ctx, rec, j)]  # the list's entries
        ):
            return
        rec.agreement_started = True
        candidate = tuple(
            sorted((j, digest, sig) for j, (digest, sig) in collected.items())
        )
        ctx.spawn(
            ("mvba", (ctx.session, r)),
            MultiValuedAgreement(candidate, predicate=self._list_predicate(ctx, rec)),
            on_output=lambda decision: self._on_decision(ctx, rec, decision),
        )

    def _list_predicate(self, ctx: Context, rec: _Round) -> Callable[[object], bool]:
        """External validity: a quorum of distinct, properly signed digests.

        An entry equal to the proposal recorded from that sender in the
        round's record is accepted by comparison once that proposal is
        checked (:meth:`_checked`, at most once); only entries this
        party has not recorded build the statement, hash a challenge and
        cost arithmetic.  Once the record is gone — a closed session's
        round after :meth:`rebase`, or one long delivered — nothing is
        accepted (the predicate holds it weakly: an agreement outlives
        its round, its batches must not).

        Signatures cover the batch *digest*, so MVBA inputs stay O(n)
        regardless of batch bytes.  A party additionally refuses to
        endorse a candidate until it holds every referenced batch — a
        commit certificate therefore doubles as an availability proof
        (a quorum, hence an honest-containing set, stored the bytes),
        so the post-decision fetch in :meth:`_try_deliver` always
        terminates.  Missing batches are requested as a side effect,
        which also restores liveness when a Byzantine proposer withheld
        its batch from some honest parties.
        """
        public = ctx.public
        quorum = ctx.quorum
        session = ctx.session
        verified = ctx.verified
        r = rec.number
        started_on = weakref.ref(rec)

        def predicate(value: object) -> bool:
            rec = started_on()
            if rec is None or self.rounds.get(r) is not rec:
                return False
            if not isinstance(value, tuple) or not value:
                return False
            senders = []
            for entry in value:
                if not (isinstance(entry, tuple) and len(entry) == 3):
                    return False
                j, digest, sig = entry
                if not isinstance(j, int) or not isinstance(digest, bytes):
                    return False
                if rec.proposals.get(j) == (digest, sig):
                    if not self._checked(ctx, rec, j):
                        return False
                else:
                    key = public.verify_keys.get(j)
                    if key is None:
                        return False
                    statement = proposal_statement(session, r, digest)
                    if not key.verify(statement, sig, verified):
                        return False
                senders.append(j)
            if len(set(senders)) != len(senders):
                return False
            if not quorum.is_quorum(senders):
                return False
            missing = [d for _j, d, _s in value if d not in rec.batches]
            return not missing or self._fetch(ctx, rec, missing)

        return predicate

    def _fetch(self, ctx: Context, rec: _Round, missing: list[bytes]) -> bool:
        """Whether ``rec`` now holds every missing batch: one another
        round holds is copied, the rest asked for once in this round."""
        for digest in missing:
            if not self._copy(ctx, rec, digest) and digest not in rec.requested:
                rec.requested.add(digest)
                ctx.broadcast(AbcBatchRequest(rec.number, digest))
        return all(digest in rec.batches for digest in missing)

    def _copy(self, ctx: Context, rec: _Round, digest: bytes) -> bool:
        """Hold a batch another round's record holds (one proposed again,
        the empty one) — searched only on a miss."""
        for _r, other in sorted(self.rounds.items()):
            if digest in other.batches:
                self._hold(ctx, rec, digest, other.batches[digest])
                return True
        return False

    def _retry_predicates(self, ctx: Context) -> None:
        """Poke in-flight agreements whose CBC validations may pass now
        that a new batch arrived."""
        for r in range(self.round + 1, self.highest_started + 1):
            rec = self.rounds.get(r)
            if rec is None or not rec.agreement_started:
                continue
            sid: SessionId = ("mvba", (ctx.session, r))
            inst = ctx.instance(sid)
            if isinstance(inst, MultiValuedAgreement):
                inst.refresh_validation(ctx.at(sid))

    # -- delivery ----------------------------------------------------------------

    def _on_decision(self, ctx: Context, rec: _Round, decision: object) -> None:
        if self.rounds.get(rec.number) is not rec:
            return  # its record is gone: a closed session's agreement (rebase)
        if not isinstance(decision, MvbaDecision) or not isinstance(decision.value, tuple):
            return
        if rec.number <= self.round or rec.decision is not None:
            return
        rec.decision = decision.value
        self._try_deliver(ctx)

    def _try_deliver(self, ctx: Context) -> None:
        """Apply decisions strictly in round order, until :meth:`close`."""
        progressed = False
        while not self.closed:
            r = self.round + 1
            rec = self.rounds.get(r)
            if rec is None or rec.decision is None:
                break
            value = rec.decision
            missing = [d for _j, d, _s in value if d not in rec.batches]
            if missing and not self._fetch(ctx, rec, missing):
                # In-order delivery must wait for the payload bytes;
                # the deciding quorum stored them, so this terminates.
                break
            self._occupancy_sum += max(self.highest_started, r) - self.round
            self._occupancy_samples += 1
            tail: dict[Hashable, None] = {}  # what follows a close, in order
            self._delivering = True
            for _j, digest, _sig in sorted(value):
                for payload in rec.batches[digest]:
                    if payload in self.delivered:
                        continue
                    if self.closed:
                        tail[payload] = None
                        continue
                    self.delivered.add(payload)
                    self.delivered_log.append((payload, r))
                    self.payloads_delivered += 1
                    if self.on_deliver is not None:
                        self.on_deliver(payload, r)
            self._delivering = False
            if tail:
                self.queue = [*tail, *(p for p in self.queue if p not in tail)]
            self.round = r
            self.rounds_delivered += 1
            rec.proposals.clear()  # unread once delivered; only the proposal
            rec.verdicts.clear()  # and batches must stay fetchable
            self._settle()
            ctx.trace.bump("abc.rounds")
            if self.on_round_end is not None:
                self.on_round_end(r)
            progressed = True
        if progressed:
            self._refresh_lag()
            self._maybe_start_rounds(ctx)
        then, self._after_close = self._after_close, None
        if then is not None:
            then()

    def _settle(self) -> None:
        """Catch up with the delivered round (after each delivered round,
        and :meth:`resume_at`'s fast-forward, which may skip many): drop
        the records ``_BUFFER_SLACK`` rounds behind it and the delivered
        payloads from the queue and the in-flight mask."""
        for stale in [r for r in self.rounds if r <= self.round - _BUFFER_SLACK]:
            del self.rounds[stale]
        self.queue = [p for p in self.queue if p not in self.delivered]
        self.queued = set(self.queue)
        self._sync_in_flight()

    def _sync_in_flight(self) -> None:
        """Payloads masked from new batches: those in our own proposals
        for rounds that have not delivered yet."""
        masked: set[Hashable] = set()
        for r in sorted(self.rounds):
            own = self.rounds[r].proposal
            if r > self.round and own is not None:
                masked.update(own.batch)
        self.in_flight = masked
