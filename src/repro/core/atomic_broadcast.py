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
set membership); anything else is refused where a batch would enter
``self.batches``, so no honest party ever endorses a candidate list
that references one.

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
        # Bumped by rebase(): agreements spawned for an earlier
        # generation (a closed session) are ignored when they complete,
        # so an old-session round can never collide with the round of
        # the same number restarted under the successor session.
        self.generation = 0
        # Our own proposals by round: (batch, digest, signature).
        # Recently delivered rounds are retained (_BUFFER_SLACK deep) so
        # rejoining parties can ask for an exact re-send.
        self.proposed: dict[int, tuple[tuple, bytes, Signature]] = {}
        # Recorded proposals, and their signatures' verdicts (_checked).
        self.proposals: dict[int, dict[int, tuple[bytes, Signature]]] = {}
        self.verdicts: dict[int, dict[int, bool]] = {}
        self.batches: dict[bytes, tuple] = {}
        self.requested: set[bytes] = set()
        self.agreement_started: set[int] = set()
        self.decisions: dict[int, tuple] = {}
        # Digests decided in recently delivered rounds, kept so lagging
        # peers can still fetch the batches behind them.
        self._recent_digests: dict[int, frozenset[bytes]] = {}
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
        if self.highest_started < self.round:
            self.highest_started = self.round
        while self.highest_started < self.round + self.config.pipeline_depth:
            nxt = self.highest_started + 1
            batch = self._select_batch()
            recorded = sorted(self.proposals.get(nxt, {}))
            if not batch and not any(self._checked(ctx, nxt, j) for j in recorded):
                return
            self.highest_started = nxt
            digest = batch_digest(batch)
            statement = proposal_statement(ctx.session, nxt, digest)
            signature = ctx.keys.signing_key.sign(statement, ctx.rng, ctx.verified)
            self.proposed[nxt] = (batch, digest, signature)
            self.batches.setdefault(digest, batch)
            self.in_flight.update(batch)
            ctx.broadcast(AbcProposal(nxt, batch, signature))
            self._maybe_start_agreement(ctx, nxt)

    def resume_at(self, ctx: Context, round_number: int) -> None:
        """Rejoin the round structure after recovery (Section 6).

        Fast-forward past everything the transferred log settled, drop
        state for rounds at or below it, and ask the peers to re-send
        their still-in-flight proposals — bounded buffering means the
        ones that arrived while this party lagged were not kept.  Any
        round this party already signed a proposal for stays off-limits
        for re-proposal (``highest_started`` never regresses), so
        recovery can never make an honest party equivocate.
        """
        self.round = max(self.round, round_number)
        if self.highest_started < self.round:
            self.highest_started = self.round
        self._cleanup_after_round(self.round)
        self._refresh_lag()
        ctx.broadcast(AbcRejoin(self.round))
        self._maybe_start_rounds(ctx)

    def rebase(self, ctx: Context) -> None:
        """Carry this broadcast onto a successor session (epoch switch).

        The session that hosted it was closed and replaced by a
        tombstone, so protocol traffic for any round still in flight —
        proposal exchange, agreement sub-protocols — now lands on the
        tombstone and those rounds can never decide.  Abandon
        everything above the last *delivered* round and re-propose the
        undelivered payloads under ``ctx``'s (new) session.  Delivered
        history is untouched and round numbering continues where it
        left off, so journal rounds stay monotone across the switch.
        Restarting a round number this party already signed for is not
        equivocation: proposal statements bind the session id, so the
        same round under a different session is a different statement.
        A straggler agreement from the closed session that completes
        after the switch is discarded by the generation check in
        :meth:`_on_decision` rather than racing the restarted round.
        """
        base = self.round
        self.generation += 1
        self.highest_started = base
        self._drop_proposals(lambda r: r > base)
        for stale in [r for r in self.decisions if r > base]:
            del self.decisions[stale]
        for stale in [r for r in self.proposed if r > base]:
            del self.proposed[stale]
        self.agreement_started = {
            r for r in self.agreement_started if r <= base
        }
        self._sync_in_flight()
        self._gc_batches()
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
        if self.verdicts.get(r, {}).get(sender) is False:
            return  # excluded from this round: its recorded one failed
        recorded = self.proposals.setdefault(r, {})
        if sender not in recorded:
            recorded[sender] = (digest, message.signature)
            # Adoption (module docstring): what the proposal taught this
            # party goes into its own batch for the round it now joins.
            taught = [p for p in message.batch if p not in self.delivered and p not in self.queued]
            if taught and self._checked(ctx, r, sender):
                for payload in taught:
                    self._enqueue(payload)
        self.batches.setdefault(digest, message.batch)
        self._maybe_start_rounds(ctx)
        self._maybe_start_agreement(ctx, r)
        self._retry_predicates(ctx)
        self._try_deliver(ctx)

    def _checked(self, ctx: Context, r: int, j: int) -> bool:
        """Whether ``j``'s recorded round-``r`` proposal is signed, checked
        once; a bad one is dropped and ``j`` excluded from round ``r`` (a
        bad signature gains a sender nothing a good one would not)."""
        verdicts = self.verdicts.setdefault(r, {})
        if j not in verdicts:
            digest, signature = self.proposals[r][j]
            verdicts[j] = ctx.public.verify_keys[j].verify(
                proposal_statement(ctx.session, r, digest), signature, ctx.verified
            )
            if not verdicts[j]:
                del self.proposals[r][j]
        return verdicts[j]

    def _drop_proposals(self, stale: Callable[[int], bool]) -> None:
        for book in (self.proposals, self.verdicts):
            for r in [r for r in book if stale(r)]:
                del book[r]

    def _on_batch_request(
        self, ctx: Context, sender: int, message: AbcBatchRequest
    ) -> None:
        digest = message.digest
        if not isinstance(digest, bytes) or digest not in self.batches:
            return
        ctx.send(sender, AbcBatch(digest, self.batches[digest]))

    def _on_batch(self, ctx: Context, sender: int, message: AbcBatch) -> None:
        digest = message.digest
        if not isinstance(digest, bytes) or not _well_formed(message.batch):
            return
        if digest not in self.requested:
            return  # only store what we asked for: bounded memory
        if batch_digest(message.batch) != digest:
            return
        self.batches.setdefault(digest, message.batch)
        self._retry_predicates(ctx)
        self._try_deliver(ctx)

    def _on_rejoin(self, ctx: Context, sender: int, message: AbcRejoin) -> None:
        base = message.round
        if not isinstance(base, int):
            return
        for r in sorted(self.proposed):
            if r <= base:
                continue
            batch, _digest, signature = self.proposed[r]
            ctx.send(sender, AbcProposal(r, batch, signature))

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

    def _maybe_start_agreement(self, ctx: Context, r: int) -> None:
        if r in self.agreement_started:
            return
        if r <= self.round or r > self.highest_started:
            return
        collected = self.proposals.get(r, {})
        if not ctx.quorum.is_quorum(collected) or not ctx.quorum.is_quorum(
            [j for j in sorted(collected) if self._checked(ctx, r, j)]  # the list's entries
        ):
            return
        self.agreement_started.add(r)
        candidate = tuple(
            sorted((j, digest, sig) for j, (digest, sig) in collected.items())
        )
        predicate = self._list_predicate(ctx, r)
        generation = self.generation
        ctx.spawn(
            ("mvba", (ctx.session, r)),
            MultiValuedAgreement(candidate, predicate=predicate),
            on_output=lambda decision, rr=r, g=generation: self._on_decision(
                ctx, rr, decision, g
            ),
        )

    def _list_predicate(self, ctx: Context, r: int) -> Callable[[object], bool]:
        """External validity: a quorum of distinct, properly signed digests.

        An entry equal to the proposal recorded from that sender
        (``self.proposals[r]``) is accepted by comparison once that
        proposal is checked (:meth:`_checked`, at most once); only
        entries this party has not recorded build the statement, hash a
        challenge and cost arithmetic.

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
        generation = self.generation

        def predicate(value: object) -> bool:
            if not isinstance(value, tuple) or not value:
                return False
            # After rebase() round r holds proposals signed under the
            # successor session, which say nothing to this predicate.
            held = self.proposals.get(r, {}) if generation == self.generation else {}
            senders = []
            for entry in value:
                if not (isinstance(entry, tuple) and len(entry) == 3):
                    return False
                j, digest, sig = entry
                if not isinstance(j, int) or not isinstance(digest, bytes):
                    return False
                if held.get(j) == (digest, sig):
                    if not self._checked(ctx, r, j):
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
            missing = [d for _j, d, _s in value if d not in self.batches]
            if missing:
                self._request_batches(ctx, r, missing)
                return False
            return True

        return predicate

    def _request_batches(
        self, ctx: Context, r: int, digests: list[bytes]
    ) -> None:
        for digest in digests:
            if digest in self.requested:
                continue
            self.requested.add(digest)
            ctx.broadcast(AbcBatchRequest(r, digest))

    def _retry_predicates(self, ctx: Context) -> None:
        """Poke in-flight agreements whose CBC validations may pass now
        that a new batch arrived."""
        for r in sorted(self.agreement_started):
            if r <= self.round:
                continue
            sid: SessionId = ("mvba", (ctx.session, r))
            inst = ctx.instance(sid)
            if isinstance(inst, MultiValuedAgreement):
                inst.refresh_validation(ctx.at(sid))

    # -- delivery ----------------------------------------------------------------

    def _on_decision(
        self,
        ctx: Context,
        r: int,
        decision: object,
        generation: int | None = None,
    ) -> None:
        if generation is not None and generation != self.generation:
            return  # agreement of a closed session (see rebase())
        if not isinstance(decision, MvbaDecision):
            return
        if r <= self.round or r in self.decisions:
            return
        if not isinstance(decision.value, tuple):
            return
        self.decisions[r] = decision.value
        self._try_deliver(ctx)

    def _try_deliver(self, ctx: Context) -> None:
        """Apply buffered decisions strictly in round order."""
        progressed = False
        while True:
            r = self.round + 1
            value = self.decisions.get(r)
            if value is None:
                break
            missing = [d for _j, d, _s in value if d not in self.batches]
            if missing:
                # In-order delivery must wait for the payload bytes;
                # the deciding quorum stored them, so this terminates.
                self._request_batches(ctx, r, missing)
                break
            self._occupancy_sum += max(self.highest_started, r) - self.round
            self._occupancy_samples += 1
            for _j, digest, _sig in sorted(value):
                for payload in self.batches[digest]:
                    if payload in self.delivered:
                        continue
                    self.delivered.add(payload)
                    self.delivered_log.append((payload, r))
                    self.payloads_delivered += 1
                    if self.on_deliver is not None:
                        self.on_deliver(payload, r)
            del self.decisions[r]
            self.round = r
            self.rounds_delivered += 1
            self._recent_digests[r] = frozenset(d for _j, d, _s in value)
            self._cleanup_after_round(r)
            ctx.trace.bump("abc.rounds")
            if self.on_round_end is not None:
                self.on_round_end(r)
            progressed = True
        if progressed:
            self._refresh_lag()
            self._maybe_start_rounds(ctx)

    def _cleanup_after_round(self, r: int) -> None:
        """Drop what rounds up to ``r`` kept — proposals, decisions,
        agreements and, ``_BUFFER_SLACK`` rounds further back, our own
        proposals and their digests.  Called after each delivered round
        and by :meth:`resume_at`, whose fast-forward may skip many."""
        self._drop_proposals(lambda p: p <= r)
        for stale in [p for p in self.decisions if p <= r]:
            del self.decisions[stale]
        self.agreement_started = {p for p in self.agreement_started if p > r}
        retain = r - _BUFFER_SLACK
        for stale in [p for p in self.proposed if p <= retain]:
            del self.proposed[stale]
        for stale in [p for p in self._recent_digests if p <= retain]:
            del self._recent_digests[stale]
        self.queue = [p for p in self.queue if p not in self.delivered]
        self.queued = set(self.queue)
        self._sync_in_flight()
        self._gc_batches()

    def _sync_in_flight(self) -> None:
        """Payloads masked from new batches: those in our own proposals
        for rounds that have not delivered yet."""
        masked: set[Hashable] = set()
        for r in sorted(self.proposed):
            if r > self.round:
                masked.update(self.proposed[r][0])
        self.in_flight = masked

    def _gc_batches(self) -> None:
        """Drop batch bytes no live round references.  Recently
        delivered rounds stay fetchable for lagging peers."""
        live: set[bytes] = set()
        for r in sorted(self.proposals):
            for j in sorted(self.proposals[r]):
                live.add(self.proposals[r][j][0])
        for r in sorted(self.decisions):
            for entry in self.decisions[r]:
                live.add(entry[1])
        for r in sorted(self.proposed):
            live.add(self.proposed[r][1])
        for r in sorted(self._recent_digests):
            live.update(self._recent_digests[r])
        self.batches = {
            d: self.batches[d] for d in sorted(live) if d in self.batches
        }
        self.requested &= live
