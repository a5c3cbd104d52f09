"""Service clients (Section 5).

A client knows only the service's *single* public keys (the dealer's
public bundle) — never individual server keys beyond the directory used
to authenticate channels.  It submits a request to more than ``t``
servers (we default to all, the simplest way to also get the fairness
guarantee of atomic broadcast), then collects partial answers until the
repliers with a matching result form an honest-containing set, and
combines their signature shares into one service-signed reply.  A
pending request is one record, which holds the message that orders it:
a resubmission re-sends the request as it first went out, so a
confidential one stays encrypted.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from .. import codec
from ..core.atomic_broadcast import payload_digest
from ..crypto.dealer import PublicKeys
from ..crypto.schnorr import VerifiedMemo
from ..crypto.threshold_sig import QuorumCertificate
from ..net.base import NetworkBackend
from ..net.simulator import Node
from .reconfig import (
    EpochError,
    MembershipInfo,
    MembershipQuery,
    adopt_membership,
    epoch_service_session,
)
from .replica import SubmitEncrypted, SubmitRequest, SubmitUnordered, reply_root, tree_statement
from .state_machine import Reply, Request

__all__ = ["CompletedRequest", "ServiceClient"]

# The longest a call waits for an answer before re-sending its request.
_MAX_ATTEMPT_TIMEOUT = 15.0
_Ordered = SubmitRequest | SubmitEncrypted


@dataclass(frozen=True)
class CompletedRequest:
    """A finished request: the agreed result plus the service signature
    on the root of the reply tree ``path`` leads to from the result."""

    nonce: int
    result: object
    signature: QuorumCertificate
    path: tuple = ()

    def verify(self, public: PublicKeys, client: int, operation: tuple) -> bool:
        """Re-verify the service's signature on this answer."""
        digest = payload_digest(Request(client, self.nonce, operation).encode())
        answer = reply_root(digest, self.result, self.path)
        return answer is not None and public.service_signature.verify(
            tree_statement(answer[1]), self.signature
        )


@dataclass
class _Pending:
    """A request awaiting its answer: the message that orders it (as it
    went out; an unordered read's is a SubmitRequest), the digest its
    reply leaves bind, and replica -> ((leaf, root), reply) so far."""

    ordered: _Ordered
    digest: bytes
    replies: dict[int, tuple[tuple[bytes, bytes], Reply]] = field(default_factory=dict)


class ServiceClient(Node):
    """A (possibly one of many) client attached to the network."""

    def __init__(
        self,
        client_id: int,
        network: NetworkBackend,
        public: PublicKeys,
        rng: random.Random,
        epoch: int = 0,
        first_nonce: int = 1,
    ) -> None:
        self.client_id = client_id
        self.network = network
        self.public = public
        self.rng = rng
        self.epoch = epoch
        self.session = epoch_service_session(epoch)
        # Replicas execute a (client, nonce) at most once, so a client
        # that is not the first of its id must start above every nonce
        # its predecessors used (net/cluster.attach_client does).
        self._nonce = first_nonce - 1
        self._operations: dict[int, tuple] = {}  # every nonce's, for operation()
        self._pending: dict[int, _Pending] = {}
        self.completed: dict[int, CompletedRequest] = {}
        # Reply shares are checked on arrival; combining them into the
        # service signature must not pay for each of them again, nor
        # must a later reply from the same replica under the same tree.
        self.verified = VerifiedMemo()
        self.resubmissions = 0
        self.duplicate_replies = 0
        self.epoch_refreshes = 0
        # Signed MembershipInfo votes collected after an EpochError,
        # grouped by the configuration they attest to.
        self._membership_votes: dict[tuple[int, str], set[int]] = {}

    # -- submission --------------------------------------------------------------

    def submit(self, operation: tuple, servers: list[int] | None = None) -> int:
        """Send a plaintext request; returns the nonce to await."""
        nonce, request = self._next_request(operation)
        self._send(self._hold(nonce, request, SubmitRequest(request)), servers)
        return nonce

    def submit_unordered(self, operation: tuple, servers: list[int] | None = None) -> int:
        """Send a commuting (read-only) request — no total ordering.

        Section 5: commuting requests only need reliable delivery, so
        replicas answer directly and the round-trip skips the agreement
        machinery entirely.  Completion still requires matching signed
        answers from an honest-containing set; if replicas are mid-write
        and their answers diverge, :meth:`resubmit` orders it.
        """
        nonce, request = self._next_request(operation)
        self._hold(nonce, request, SubmitRequest(request))
        self._send(SubmitUnordered(request), servers)
        return nonce

    def submit_confidential(self, operation: tuple, servers: list[int] | None = None) -> int:
        """Encrypt the request under the service key and submit it.

        The request remains confidential until the secure causal atomic
        broadcast has fixed its position in the total order.
        """
        nonce, request = self._next_request(operation)
        label = codec.dumps(("client", self.client_id, nonce))
        ciphertext = self.public.encryption.encrypt(codec.dumps(request), label, self.rng)
        self._send(self._hold(nonce, request, SubmitEncrypted(ciphertext)), servers)
        return nonce

    def resubmit(self, nonce: int, servers: list[int] | None = None) -> bool:
        """Re-send a still-pending request, to be ordered, as it first went
        out: under its *original* nonce, and as the same ciphertext if
        confidential (a resharing keeps the encryption key).

        Safe to call any number of times: replicas execute a ``(client,
        nonce)`` at most once, and this client ignores replies to a
        completed request.  Returns False once it has (nothing is sent).
        """
        pending = self._pending.get(nonce)
        if pending is None or nonce in self.completed:
            return False
        self._send(pending.ordered, servers)
        self.resubmissions += 1
        return True

    async def call(
        self,
        operation: tuple,
        *,
        timeout: float = 60.0,
        attempt_timeout: float = 3.0,
        servers: list[int] | None = None,
    ) -> CompletedRequest:
        """Submit an ordered request and await its signed answer,
        resubmitting with capped exponential backoff.

        This is the chaos-hardened client loop for the TCP backend (the
        network must provide ``wait_until``, i.e. be a
        :class:`~repro.net.transport.TransportNetwork`): a replica that
        crashes, restarts, or sits behind a partition can swallow the
        first submission, so the request is re-sent — same nonce, so
        replicas execute it at most once — every ``attempt_timeout``
        (doubling, up to ``_MAX_ATTEMPT_TIMEOUT``) until
        the overall per-op ``timeout`` expires, which forgets the request
        and raises ``asyncio.TimeoutError`` instead of hanging forever.
        """
        nonce = self.submit(operation, servers=servers)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        wait = attempt_timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                # Re-validate completion before declaring failure: the
                # signed answer may have landed during the final
                # suspension (wait_until times out and completion races
                # its TimeoutError), and reporting a completed —
                # possibly state-mutating — operation as timed out
                # would make the caller retry it under a *new* nonce.
                if nonce in self.completed:
                    return self.completed[nonce]
                # Given up: a late answer is counted as a duplicate.
                del self._pending[nonce]
                raise asyncio.TimeoutError(
                    f"operation {operation!r} (nonce {nonce}) did not complete "
                    f"within {timeout}s after {self.resubmissions} resubmission(s)"
                )
            try:
                await self.network.wait_until(
                    lambda: nonce in self.completed,
                    timeout=min(wait, remaining),
                )
                return self.completed[nonce]
            except asyncio.TimeoutError:
                self.resubmit(nonce, servers=servers)
                wait = min(wait * 2, _MAX_ATTEMPT_TIMEOUT)

    def operation(self, nonce: int) -> tuple:
        """The operation submitted under ``nonce`` (KeyError if unknown)."""
        return self._operations[nonce]

    def _next_request(self, operation: tuple) -> tuple[int, tuple]:
        """The next nonce, and ``operation``'s encoded request under it."""
        self._nonce += 1
        self._operations[self._nonce] = operation
        return self._nonce, Request(self.client_id, self._nonce, operation).encode()

    def _hold(self, nonce: int, request: tuple, ordered: _Ordered) -> _Ordered:
        """Keep ``request`` pending until answered; returns ``ordered``."""
        self._pending[nonce] = _Pending(ordered, payload_digest(request))
        return ordered

    def _send(self, message: object, servers: list[int] | None) -> None:
        """Send ``message`` to ``servers``, by default to every replica this
        client shares a channel key with (all, on the simulator): a joiner
        admitted later stays out; the rest still form an honest-containing set."""
        if servers is None:
            known = getattr(self.network, "channel_keys", None)
            servers = [s for s in range(self.public.n) if known is None or s in known]
        payload = (self.session, message)
        for server in servers:
            self.network.send(self.client_id, server, payload)

    # -- replies ---------------------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        session, message = payload
        if session != self.session:
            return
        if isinstance(message, EpochError):
            self._on_epoch_error(sender, message)
            return
        if isinstance(message, MembershipInfo):
            self._on_membership_info(sender, message)
            return
        if not isinstance(message, Reply):
            return
        if message.replica != sender or message.client != self.client_id:
            return
        nonce = message.nonce
        pending = self._pending.get(nonce)
        # Late or repeated answers for a finished request (normal under
        # resubmission) change nothing: dedup, don't recount.
        if pending is None or sender in pending.replies:
            self.duplicate_replies += 1
            return
        # Verify the share up front, on the root this answer's path leads
        # to: junk from corrupted replicas is discarded here.
        answer = reply_root(pending.digest, message.result, message.path)
        if answer is None or not self.public.service_signature.verify_share(
            tree_statement(answer[1]), (sender, message.signature_share), self.verified
        ):
            return
        pending.replies[sender] = (answer, message)
        self._maybe_complete(nonce, pending)

    # -- epoch refresh (online reconfiguration) --------------------------------

    def _on_epoch_error(self, sender: int, message: EpochError) -> None:
        """A replica told us our session's epoch is closed: fetch the
        signed membership record instead of burning the retry budget
        against a configuration that no longer exists."""
        if message.epoch <= self.epoch:
            return
        self._send(MembershipQuery(known_epoch=self.epoch), None)

    def _on_membership_info(self, sender: int, message: MembershipInfo) -> None:
        """Adopt a newer configuration by :func:`adopt_membership`."""
        adopted = adopt_membership(self._membership_votes, self.public, self.epoch, sender, message)
        if adopted is None:
            return
        self.epoch, self.public = adopted
        self.session = epoch_service_session(self.epoch)
        self.epoch_refreshes += 1
        # Replies collected under the old configuration mix signature
        # shares from two key generations; drop them and re-send every
        # pending request — same nonce, so execution stays at-most-once
        # even if the old epoch already ordered it.
        for nonce in sorted(self._pending):
            self._pending[nonce].replies.clear()
            self.resubmit(nonce)

    def _maybe_complete(self, nonce: int, pending: _Pending) -> None:
        """Complete once matching replies form an honest-containing set.

        Replies match when they carry the same leaf — which binds the
        result — under the same signed root; both are bytes, so no
        result a replica sends can make the grouping fail.
        """
        by_answer: dict[tuple[bytes, bytes], dict[int, Reply]] = {}
        for sender, (answer, reply) in sorted(pending.replies.items()):
            by_answer.setdefault(answer, {})[sender] = reply
        # Examine candidates by their lowest supporting replica id so
        # completion is a function of the reply set, not of arrival order.
        candidates = sorted(by_answer.items(), key=lambda kv: min(kv[1]))
        for (_leaf, root), group in candidates:
            if not self.public.quorum.contains_honest(group):
                continue
            shares = {s: r.signature_share for s, r in group.items()}
            try:
                signature = self.public.service_signature.combine(
                    tree_statement(root), shares, self.verified
                )
            except ValueError:
                continue
            reply = group[min(group)]
            self.completed[nonce] = CompletedRequest(
                nonce=nonce, result=reply.result, signature=signature, path=reply.path
            )
            # Dropping the record keeps an open-loop client's memory
            # proportional to the requests in flight, not its lifetime
            # (late replies are counted as duplicates instead).
            del self._pending[nonce]
            return
