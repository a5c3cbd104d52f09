"""Service clients (Section 5).

A client knows only the service's *single* public keys (the dealer's
public bundle) — never individual server keys beyond the directory used
to authenticate channels.  It submits a request to more than ``t``
servers (we default to all, the simplest way to also get the fairness
guarantee of atomic broadcast), then collects partial answers until the
repliers with a matching result form an honest-containing set, and
combines their signature shares into one service-signed reply.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from .. import codec
from ..crypto.dealer import PublicKeys
from ..crypto.schnorr import VerifiedMemo
from ..crypto.threshold_sig import QuorumCertScheme, ShoupRsaScheme
from ..net.base import NetworkBackend
from ..net.simulator import Node
from .reconfig import (
    EpochError,
    MembershipInfo,
    MembershipQuery,
    adopt_membership,
    epoch_service_session,
)
from .replica import SubmitEncrypted, SubmitRequest, reply_root, tree_statement
from .state_machine import Reply, Request

__all__ = ["CompletedRequest", "ServiceClient"]

# The longest a call waits for an answer before re-sending its request.
_MAX_ATTEMPT_TIMEOUT = 15.0


@dataclass(frozen=True)
class CompletedRequest:
    """A finished request: the agreed result plus the service signature
    on the root of the reply tree ``path`` leads to from the result."""

    nonce: int
    result: object
    signature: object
    path: tuple = ()

    def verify(self, public: PublicKeys, client: int, operation: tuple) -> bool:
        """Re-verify the service's signature on this answer."""
        digest = ("request", client, self.nonce, operation)
        answer = reply_root(digest, self.result, self.path)
        scheme = public.service_signature
        if answer is None or not isinstance(scheme, (QuorumCertScheme, ShoupRsaScheme)):
            return False
        return scheme.verify(tree_statement(answer[1]), self.signature)


class ServiceClient(Node):
    """A (possibly one of many) client attached to the network."""

    def __init__(
        self,
        client_id: int,
        network: NetworkBackend,
        public: PublicKeys,
        rng: random.Random,
        epoch: int = 0,
    ) -> None:
        self.client_id = client_id
        self.network = network
        self.public = public
        self.rng = rng
        self.epoch = epoch
        self.session = epoch_service_session(epoch)
        self._nonce = 0
        self._operations: dict[int, tuple] = {}
        # nonce -> replica -> ((leaf, root), reply): each reply's tree
        # root is computed once, on arrival.
        self._replies: dict[int, dict[int, tuple[tuple[bytes, bytes], Reply]]] = {}
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
        nonce = self._next_nonce(operation)
        request = Request(client=self.client_id, nonce=nonce, operation=operation)
        payload = (self.session, SubmitRequest(request.encode()))
        for server in self._targets(servers):
            self.network.send(self.client_id, server, payload)
        return nonce

    def submit_unordered(
        self, operation: tuple, servers: list[int] | None = None
    ) -> int:
        """Send a commuting (read-only) request — no total ordering.

        Section 5: commuting requests only need reliable delivery, so
        replicas answer directly and the round-trip skips the agreement
        machinery entirely.  Completion still requires matching signed
        answers from an honest-containing set; if replicas are mid-write
        and their answers diverge, resubmit via :meth:`submit`.
        """
        from .replica import SubmitUnordered

        nonce = self._next_nonce(operation)
        request = Request(client=self.client_id, nonce=nonce, operation=operation)
        payload = (self.session, SubmitUnordered(request.encode()))
        for server in self._targets(servers):
            self.network.send(self.client_id, server, payload)
        return nonce

    def submit_confidential(
        self, operation: tuple, servers: list[int] | None = None
    ) -> int:
        """Encrypt the request under the service key and submit it.

        The request remains confidential until the secure causal atomic
        broadcast has fixed its position in the total order.
        """
        nonce = self._next_nonce(operation)
        request = Request(client=self.client_id, nonce=nonce, operation=operation)
        plaintext = codec.dumps(request.encode())
        label = codec.dumps(("client", self.client_id, nonce))
        ciphertext = self.public.encryption.encrypt(plaintext, label, self.rng)
        payload = (self.session, SubmitEncrypted(ciphertext))
        for server in self._targets(servers):
            self.network.send(self.client_id, server, payload)
        return nonce

    def resubmit(self, nonce: int, servers: list[int] | None = None) -> bool:
        """Re-send a still-pending ordered request under its *original*
        nonce.

        Safe to call any number of times: replicas deduplicate by
        ``(client, nonce)`` (at-most-once execution), and this client
        ignores replies for nonces already completed, so a resubmission
        can never double-count an operation.  Returns False once the
        request has completed (nothing was sent).
        """
        if nonce in self.completed or nonce not in self._operations:
            return False
        operation = self._operations[nonce]
        request = Request(client=self.client_id, nonce=nonce, operation=operation)
        payload = (self.session, SubmitRequest(request.encode()))
        for server in self._targets(servers):
            self.network.send(self.client_id, server, payload)
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
        the overall per-op ``timeout`` expires, which raises
        ``asyncio.TimeoutError`` instead of hanging forever.
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

    def _next_nonce(self, operation: tuple) -> int:
        self._nonce += 1
        self._operations[self._nonce] = operation
        return self._nonce

    def _targets(self, servers: list[int] | None) -> list[int]:
        if servers is not None:
            return servers
        targets = list(range(self.public.n))
        # On an authenticated transport we can only reach replicas we
        # share a channel key with; a joiner admitted after this client
        # was provisioned stays out of the target set (the remaining
        # members still form an honest-containing set).  The simulator
        # backend has no channel keys and is unaffected.
        known = getattr(self.network, "channel_keys", None)
        if known is None:
            return targets
        return [server for server in targets if server in known]

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
        if nonce in self.completed or nonce not in self._operations:
            # Late or repeated answers for a finished request (normal
            # under resubmission) change nothing: dedup, don't recount.
            self.duplicate_replies += 1
            return
        bucket = self._replies.setdefault(nonce, {})
        if sender in bucket:
            self.duplicate_replies += 1
            return
        # Verify the replica's signature share up front, on the root this
        # answer's path leads to; junk from corrupted replicas is
        # discarded here.
        digest = ("request", self.client_id, nonce, self._operations[nonce])
        answer = reply_root(digest, message.result, message.path)
        if answer is None or not self._share_valid(
            tree_statement(answer[1]), sender, message.signature_share
        ):
            return
        bucket[sender] = (answer, message)
        self._maybe_complete(nonce)

    # -- epoch refresh (online reconfiguration) --------------------------------

    def _on_epoch_error(self, sender: int, message: EpochError) -> None:
        """A replica told us our session's epoch is closed: fetch the
        signed membership record instead of burning the retry budget
        against a configuration that no longer exists."""
        if not isinstance(message.epoch, int) or message.epoch <= self.epoch:
            return
        query = (self.session, MembershipQuery(known_epoch=self.epoch))
        for server in self._targets(None):
            self.network.send(self.client_id, server, query)

    def _on_membership_info(self, sender: int, message: MembershipInfo) -> None:
        """Adopt a newer configuration by :func:`adopt_membership`."""
        adopted = adopt_membership(
            self._membership_votes, self.public, self.epoch, sender, message
        )
        if adopted is None:
            return
        self.epoch, self.public = adopted
        self.session = epoch_service_session(self.epoch)
        self.epoch_refreshes += 1
        # Replies collected under the old configuration mix signature
        # shares from two key generations; drop them and re-send every
        # pending request — same nonce, so execution stays at-most-once
        # even if the old epoch already ordered it.
        self._replies.clear()
        for nonce in sorted(self._operations):
            self.resubmit(nonce)

    def _share_valid(self, statement: tuple, sender: int, share: object) -> bool:
        scheme = self.public.service_signature
        if isinstance(scheme, QuorumCertScheme):
            return scheme.verify_share(statement, (sender, share), self.verified)
        if isinstance(scheme, ShoupRsaScheme):
            # RSA shareholders are indexed 1..n for 0-based party i.
            return scheme.verify_share(statement, share) and share.party == sender + 1
        return False

    def _maybe_complete(self, nonce: int) -> None:
        """Complete once matching replies form an honest-containing set.

        Replies match when they carry the same leaf — which binds the
        result — under the same signed root; both are bytes, so no
        result a replica sends can make the grouping fail.
        """
        by_answer: dict[tuple[bytes, bytes], dict[int, Reply]] = {}
        for sender in sorted(self._replies[nonce]):
            answer, reply = self._replies[nonce][sender]
            by_answer.setdefault(answer, {})[sender] = reply
        # Examine candidates by their lowest supporting replica id so
        # completion is a function of the reply set, not of arrival order.
        candidates = sorted(by_answer.items(), key=lambda kv: min(kv[1]))
        for (_leaf, root), group in candidates:
            if not self.public.quorum.contains_honest(group):
                continue
            signature = self._combine(tree_statement(root), group)
            if signature is None:
                continue
            reply = group[min(group)]
            self.completed[nonce] = CompletedRequest(
                nonce=nonce, result=reply.result, signature=signature, path=reply.path
            )
            # The share buffer served its purpose; dropping it keeps an
            # open-loop client's memory proportional to the requests in
            # flight rather than its lifetime (late duplicate replies
            # are counted via `completed` instead).
            self._replies.pop(nonce, None)
            return

    def _combine(self, statement: tuple, group: dict[int, Reply]) -> object | None:
        scheme = self.public.service_signature
        try:
            if isinstance(scheme, QuorumCertScheme):
                shares = {s: r.signature_share for s, r in group.items()}
                return scheme.combine(statement, shares, self.verified)
            if isinstance(scheme, ShoupRsaScheme):
                shares = {s + 1: r.signature_share for s, r in group.items()}
                if len(shares) < scheme.k:
                    return None
                return scheme.combine(statement, shares)
        except (ValueError, ArithmeticError):
            return None
        return None
