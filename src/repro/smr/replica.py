"""Service replicas: the gateway between clients and the broadcast stack.

Section 5's request flow, per server:

1. a client sends its request to more than ``t`` servers (otherwise
   corrupted servers could simply ignore it);
2. each server *a-broadcasts* the request — via plain atomic broadcast,
   or secure causal atomic broadcast when requests are confidential
   (the request then arrives as a TDH2 ciphertext and is decrypted only
   after its position in the total order is fixed);
3. on delivery, every replica applies the request to its deterministic
   state machine and returns a partial answer containing its share of
   the service's threshold signature on the result — here one share per
   delivered round, on the root of a hash tree over the round's answers,
   each answer carrying its leaf's audit path (:func:`reply_tree`);
4. the client waits for matching answers from an honest-containing set
   and combines the shares into one service-signed reply.

The replica is a protocol instance living at session ``("service", tag)``
inside the server's :class:`~repro.core.runtime.ProtocolRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..codec import register
from ..core.atomic_broadcast import AbcConfig, AtomicBroadcast
from ..core.protocol import Context, Protocol, SessionId
from ..core.secure_causal import SecureCausalBroadcast
from ..crypto.hashing import hash_bytes
from ..crypto.threshold_enc import Ciphertext
from ..net import wire
from .reconfig import MembershipInfo, MembershipQuery
from .state_machine import Reply, Request, StateMachine

__all__ = ["SubmitRequest", "SubmitEncrypted", "RecoverQuery", "RecoverLog",
           "Replica", "service_session", "reply_leaf",
           "reply_tree", "reply_root", "tree_statement", "MAX_PATH"]


@register
@dataclass(frozen=True)
class SubmitRequest:
    """Client -> server: an ordinary (non-confidential) request."""

    request: tuple  # Request.encode()


@register
@dataclass(frozen=True)
class SubmitEncrypted:
    """Client -> server: a confidential request (TDH2 ciphertext)."""

    ciphertext: Ciphertext


@register
@dataclass(frozen=True)
class SubmitUnordered:
    """Client -> server: a commuting (read-only) request.

    Section 5: "If the client requests commute, reliable broadcast
    suffices."  The replica answers straight from its current state —
    no atomic broadcast round at all.  The client still cross-checks an
    honest-containing set of matching signed answers, so a stale or
    lying minority changes nothing; if replicas are transiently
    divergent the answers may not match and the client falls back to
    the ordered path.
    """

    request: tuple  # Request.encode()


@register
@dataclass(frozen=True)
class RecoverQuery:
    """A recovering replica asks its peers for the delivered history."""


@register
@dataclass(frozen=True)
class RecoverLog:
    """A peer's answer: its full delivery log and current round.

    The recovering replica accepts a log once an honest-containing set
    of peers reported the identical one (Section 6, crash-recovery):
    replaying it through the deterministic state machine reconstructs
    the exact pre-crash service state.
    """

    entries: tuple[tuple[Hashable, int], ...]  # in delivery order
    round: int


def service_session() -> SessionId:
    """The service session of a dealt deployment (its epoch 0)."""
    return ("service", "service")


# A round's answers share one signature share over a binary SHA-256 hash
# tree (a Merkle tree) in delivery order.  Leaves and inner nodes hash
# under different domains, so a node never passes as a leaf.
_LEAF, _NODE = "service-reply-leaf", "service-reply-node"
MAX_PATH = 64  # audit path steps a client accepts: 2^64 answers a round


def tree_statement(root: bytes) -> tuple:
    """What the service's threshold signature covers: a tree's root."""
    return ("service-replies", root)


def reply_leaf(request_digest: bytes, result: object) -> bytes:
    """One answer; the request is named by ``payload_digest(request.encode())``."""
    return hash_bytes(_LEAF, ("service-reply", request_digest, result))


def reply_tree(leaves: list[bytes]) -> tuple[bytes, list[tuple]]:
    """The root over ``leaves`` and each leaf's audit path, from the
    leaf up: ``(sibling_is_left, sibling)`` steps.  An odd node out
    moves up a level unpaired; one leaf is its own root, path ``()``."""
    paths: list[list] = [[] for _ in leaves]
    level = [(leaf, [i]) for i, leaf in enumerate(leaves)]
    while len(level) > 1:
        paired = []
        for (left, lows), (right, highs) in zip(level[::2], level[1::2]):
            for i in lows:
                paths[i].append((False, right))
            for i in highs:
                paths[i].append((True, left))
            paired.append((hash_bytes(_NODE, left, right), lows + highs))
        level = paired + level[2 * len(paired):]
    return level[0][0], [tuple(path) for path in paths]


def reply_root(
    request_digest: bytes, result: object, path: tuple[tuple[bool, bytes], ...]
) -> tuple[bytes, bytes] | None:
    """This answer's leaf and the root ``path`` leads to from it; None
    for a malformed or over-long path, refused before anything is hashed."""
    if len(path) > MAX_PATH or any(len(sibling) != 32 for _left, sibling in path):
        return None
    leaf = node = reply_leaf(request_digest, result)
    for sibling_is_left, sibling in path:
        pair = (sibling, node) if sibling_is_left else (node, sibling)
        node = hash_bytes(_NODE, *pair)
    return leaf, node


class Replica(Protocol):
    """One server's replica of a trusted application."""

    def __init__(
        self,
        state_machine: StateMachine,
        causal: bool = False,
        abc_config: AbcConfig | None = None,
    ) -> None:
        self.state_machine = state_machine
        self.causal = causal
        # The one broadcast this replica orders through; a confidential
        # service layers threshold decryption on that same instance.
        self.abc = AtomicBroadcast(config=abc_config)
        self.sc_abc = SecureCausalBroadcast(abc=self.abc) if causal else None
        # The at-most-once index: the (client, nonce) of every executed
        # request.  The ordered history itself is ``abc.delivered``.
        self.executed: set[tuple[int, int]] = set()
        # client -> (request, result) of its *latest* executed request,
        # so a duplicate submission — the identical request, operation
        # included — can be re-answered instead of silently swallowed
        # by the at-most-once dedup.  Matters across an epoch
        # switch: a request ordered at the boundary may have been
        # answered on a session the client no longer listens on, and the
        # client's same-nonce resubmission must still produce a signed
        # reply.  One entry per client suffices — clients resubmit only
        # their pending, monotonically-nonced request — and keeps memory
        # bounded by the client population, not the request volume.
        self._results: dict[int, tuple[Request, object]] = {}
        # Answers of the delivered round so far, signed as one tree when
        # the round ends (_answer_round).  A tree is a function of ordered
        # state, so every honest replica builds the same one; every other
        # answer is a one-leaf tree.
        self._round_answers: list[tuple[Request, object]] = []
        self.recovering = False
        self._recovery_logs: dict[int, RecoverLog] = {}
        self._replaying = False
        # Observation hook: called after every executed request (replays
        # included) with the round the request was ordered in — the
        # deployment host uses it for the execution journal the chaos
        # safety checker reads, and for periodic checkpointing.  Never
        # part of the protocol itself.
        self.on_execute: Callable[[Request, object, int], None] | None = None
        # Interception hook: called for every ordered request *before*
        # the application state machine.  Returning a non-None result
        # consumes the request — the replica signs and replies with that
        # result and the state machine never sees the operation.  The
        # deployment host uses it for ``Reconfigure`` operations, which
        # are agreed through the same total order as writes but drive
        # the key/membership layer instead of the application.  Its
        # verdict may depend on the executed history only, so it is
        # told nothing about how the request arrived (live or replayed).
        self.intercept: Callable[[Request], object | None] | None = None
        # The host's signed statement of the current configuration
        # (see smr/reconfig.py); answered to MembershipQuery so clients
        # can refresh against the live session too, not only against
        # tombstones of closed epochs.
        self.membership_info: object | None = None
        # Host callback for a *received* MembershipInfo: a RecoverQuery
        # we sent to peers can come back with the signed record of a
        # newer epoch instead of log entries (the peers left our epoch
        # behind while we were down) — the host verifies a quorum of
        # such votes and re-adopts.
        self.on_membership_info: Callable[[int, object], None] | None = None
        # Observation hook: a state transfer begun by begin_recovery was
        # adopted (the host announces it; the demos and chaos wait for it).
        self.on_recovered: Callable[[], None] | None = None

    # -- lifecycle ------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.abc.on_lag = lambda: self._on_lag(ctx)
        if not self.causal:
            self.abc.on_deliver = lambda payload, rnd: self._on_ordered(ctx, payload, rnd)
            self.abc.on_round_end = lambda rnd: self._answer_round(ctx)
        else:
            self.sc_abc.on_start(ctx)  # takes the broadcast's on_deliver
            self.sc_abc.on_deliver = lambda plaintext, rnd: self._on_ordered_plain(
                ctx, plaintext, rnd
            )

    # -- message routing ----------------------------------------------------------

    def admits(self, ctx: Context, child: SessionId) -> bool:
        return self.abc.admits(ctx, child)

    def on_message(self, ctx: Context, sender: int, message: object) -> None:
        if isinstance(message, SubmitRequest):
            self._on_submit(ctx, message.request)
        elif isinstance(message, SubmitUnordered):
            self._on_submit_unordered(ctx, message.request)
        elif isinstance(message, SubmitEncrypted):
            if self.causal:
                self.sc_abc.submit(ctx, message.ciphertext)
        elif isinstance(message, MembershipQuery):
            if self.membership_info is not None:
                ctx.send(sender, self.membership_info)
        elif isinstance(message, MembershipInfo):
            if self.on_membership_info is not None:
                self.on_membership_info(sender, message)
        elif isinstance(message, RecoverQuery):
            self._on_recover_query(ctx, sender)
        elif isinstance(message, RecoverLog):
            self._on_recover_log(ctx, sender, message)
        elif self.causal:
            self.sc_abc.on_message(ctx, sender, message)
        else:
            self.abc.on_message(ctx, sender, message)

    def _on_submit(self, ctx: Context, encoded: object) -> None:
        request = Request.decode(encoded)
        if request is None:
            return
        if self.causal:
            # A confidential service refuses plaintext submissions: they
            # would break input causality for everyone.
            return
        cached = self._results.get(request.client)
        if cached is not None and cached[0] == request:
            self._answer(ctx, [cached])
            return
        self.abc.submit(ctx, request.encode())

    def _on_submit_unordered(self, ctx: Context, encoded: object) -> None:
        """Answer a commuting request from current state (no ordering)."""
        request = Request.decode(encoded)
        if request is None or self.causal or self.recovering:
            return
        if not self.state_machine.is_read_only(request.operation):
            return  # mutating requests must take the ordered path
        self._answer(ctx, [(request, self.state_machine.apply(request))])

    # -- ordered execution -----------------------------------------------------------

    def _on_ordered(self, ctx: Context, payload: object, rnd: int) -> None:
        request = Request.decode(payload)
        if request is None:
            return  # a corrupted server ordered junk; skip deterministically
        self._execute(ctx, request, rnd)

    def _on_ordered_plain(self, ctx: Context, plaintext: object, rnd: int) -> None:
        if not isinstance(plaintext, bytes):
            return
        try:
            decoded = wire.loads(plaintext)  # a client's bytes: wire policy
        except wire.WireError:
            return  # a corrupted client encrypted junk; skip deterministically
        request = Request.decode(decoded)
        if request is None:
            return
        self._execute(ctx, request, rnd)

    def _on_lag(self, ctx: Context) -> None:
        """An honest-containing set of signers is provably rounds ahead
        of our bounded proposal window: the proposals we missed were
        dropped rather than buffered, so the only way back into the
        round structure is Section 6 state transfer."""
        if self.causal or self.recovering or self._replaying:
            return
        self.begin_recovery(ctx)

    # -- crash recovery (Section 6) ---------------------------------------------

    def begin_recovery(self, ctx: Context) -> None:
        """Ask peers for the delivered history after a crash restart.

        Meant for a *fresh* replica instance attached in place of the
        crashed one: its volatile state is empty, and replaying the
        agreed log through the deterministic state machine rebuilds it
        exactly.  Confidential (causal) services do not support log
        transfer here — their history exists only as ciphertexts.
        """
        if self.causal:
            raise ValueError("recovery is not supported for causal replicas")
        self.recovering = True
        ctx.broadcast(RecoverQuery())

    def _on_recover_query(self, ctx: Context, sender: int) -> None:
        if self.recovering:
            return  # cannot help while recovering ourselves
        ctx.send(
            sender,
            RecoverLog(entries=tuple(self.abc.delivered.items()), round=self.abc.round),
        )

    def _on_recover_log(self, ctx: Context, sender: int, message: RecoverLog) -> None:
        if not self.recovering:
            return
        # Latest answer wins: peers keep progressing while recovery is
        # in flight, and a re-query must not stay pinned to a stale
        # (or forged, then corrected) earlier reply.
        self._recovery_logs[sender] = message
        adopted = self._vouched_candidate(ctx)
        if adopted is None:
            return
        entries, supporters, round_number = adopted
        if not ctx.quorum.contains_honest(supporters):
            return
        self._adopt_log(ctx, entries, round_number)

    def _vouched_candidate(
        self, ctx: Context
    ) -> tuple[tuple, set[int], int] | None:
        """The longest reported log vouched by an honest-containing set.

        Peers answer at different moments, so identical-log matching
        stalls under load (everyone reports a different length).
        Instead, a responder *vouches* for a candidate ``(L, R)`` when
        its own log extends ``L`` and every extra entry was delivered in
        a round after ``R`` — an honest responder that executed past
        ``L`` inside rounds ``<= R`` would contradict the claim that
        everything up to ``R`` is settled by ``L``.  The adopted resume
        round is ``max(last round in L, min supporter round)``: both
        components are anchored at an honest reporter (supporters form
        an honest-containing set), so a Byzantine candidate can neither
        inflate the resume point past undecided rounds nor roll it
        below history the log itself contains.  Resuming low merely
        revisits rounds the agreement layer already treats as settled.
        """
        best: tuple[tuple[int, int], tuple, set[int], int] | None = None
        for peer in sorted(self._recovery_logs):
            cand = self._recovery_logs[peer]
            rounds = [r for _payload, r in cand.entries]
            k = len(cand.entries)
            supporters: set[int] = set()
            for q in sorted(self._recovery_logs):
                log = self._recovery_logs[q]
                if len(log.entries) < k or log.entries[:k] != cand.entries:
                    continue
                if any(r <= cand.round for _payload, r in log.entries[k:]):
                    continue
                supporters.add(q)
            if not ctx.quorum.contains_honest(supporters):
                continue
            floor = max(rounds, default=0)
            round_number = max(
                floor,
                min(self._recovery_logs[q].round for q in supporters),
            )
            rank = (k, -peer)
            if best is None or rank > best[0]:
                best = (rank, cand.entries, supporters, round_number)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def _adopt_log(self, ctx: Context, entries: tuple, round_number: int) -> None:
        self.recovering = False
        self._recovery_logs.clear()
        self._replay_entries(ctx, entries)
        self.abc.resume_at(ctx, round_number)
        ctx.trace.bump("replica.recoveries")
        if self.on_recovered is not None:
            self.on_recovered()

    def preload_log(self, ctx: Context, entries: tuple) -> None:
        """Replay a locally checkpointed delivery log before recovery.

        The host calls this with an *authenticated* checkpoint (HMAC
        verified against the party's own key material) before
        :meth:`begin_recovery`: peers then only need to supply the tail
        the checkpoint missed — ``_adopt_log`` skips everything already
        delivered here.  An unauthenticated or corrupted checkpoint
        must never reach this method; the host rejects it and falls
        back to pure peer recovery.
        """
        if self.causal:
            raise ValueError("checkpoints are not supported for causal replicas")
        self._replay_entries(ctx, entries)
        ctx.trace.bump("replica.checkpoint_preloads")

    def _replay_entries(self, ctx: Context, entries: tuple) -> None:
        self._replaying = True
        try:
            for payload, rnd in entries:
                if not self.abc.record(payload, rnd):
                    continue
                request = Request.decode(payload)
                if request is not None:
                    self._execute(ctx, request, rnd)
        finally:
            self._replaying = False

    def _execute(self, ctx: Context, request: Request, rnd: int) -> None:
        key = (request.client, request.nonce)
        if key in self.executed:
            return  # at-most-once semantics across duplicate submissions
        self.executed.add(key)
        result = self.intercept(request) if self.intercept is not None else None
        if result is None:
            result = self.state_machine.apply(request)
        self._results[request.client] = (request, result)
        if self.on_execute is not None:
            self.on_execute(request, result, rnd)
        if self._replaying:
            return  # clients were answered before the crash
        if self.causal:
            # A confidential answer is a one-leaf tree: a shared tree
            # would hand one client the leaf hashes of another client's
            # (possibly low-entropy) confidential answers.
            self._answer(ctx, [(request, result)])
            return
        self._round_answers.append((request, result))

    def _answer_round(self, ctx: Context) -> None:
        answers, self._round_answers = self._round_answers, []
        self._answer(ctx, answers)

    def _answer(self, ctx: Context, answers: list[tuple[Request, object]]) -> None:
        """Sign one hash tree over ``answers``; send each its reply.  A
        leaf names its request by the digest its broadcast kept."""
        if not answers:
            return
        root, paths = reply_tree([
            reply_leaf(self.abc.digest(request.encode()), result) for request, result in answers
        ])
        share = ctx.keys.service_signer.sign_share(tree_statement(root), ctx.rng)
        for (request, result), path in zip(answers, paths):
            reply = Reply(
                replica=ctx.party,
                client=request.client,
                nonce=request.nonce,
                result=result,
                signature_share=share,
                path=path,
            )
            ctx.send(request.client, reply)
