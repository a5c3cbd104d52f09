"""Digital notary / time-stamping service (Section 5.2).

The notary receives documents, assigns each a sequence number (a
logical clock), and certifies this with its signature — usable for
domain-name assignment or patent registration.  It must process
requests *sequentially and atomically*, and — the paper's central point
— request contents must stay confidential until processed: otherwise a
corrupted server could observe a pending patent filing and front-run it
with a related filing of its own.  Clients therefore submit their
requests encrypted (``submit_confidential``), which the service opens
only once their order is fixed (secure causal atomic broadcast);
experiment E7 mounts the front-running attack against a filing sent
that way and one sent in the clear.

First registration wins: re-registering a digest returns the original
sequence number marked ``first=False``.
"""

from __future__ import annotations

from ..crypto.hashing import hash_bytes
from ..smr.client import ServiceClient
from ..smr.state_machine import Request, StateMachine

__all__ = ["NotaryService", "NotaryClient", "document_digest"]


def document_digest(document: bytes) -> bytes:
    """The digest clients register (documents never leave the client)."""
    return hash_bytes("notary-document", document)


class NotaryService(StateMachine):
    """Replicated notary state: digest -> (sequence, registrant).

    Operations:
        ("register", digest)
        ("query", digest)
        ("history", start, count)   -- audit trail slice
    """

    def __init__(self) -> None:
        self.sequence = 0
        self.registry: dict[bytes, tuple[int, int]] = {}
        self.log: list[tuple[int, bytes, int]] = []

    def apply(self, request: Request) -> object:
        op = request.operation
        if not op:
            return ("error", "empty operation")
        kind = op[0]
        if kind == "register" and len(op) == 2 and isinstance(op[1], bytes):
            return self._register(request.client, op[1])
        if kind == "query" and len(op) == 2 and isinstance(op[1], bytes):
            return self._query(op[1])
        if (
            kind == "history"
            and len(op) == 3
            and isinstance(op[1], int)
            and isinstance(op[2], int)
        ):
            window = self.log[max(op[1], 0) : max(op[1], 0) + max(op[2], 0)]
            return ("history", tuple(window))
        return ("error", "unknown operation")

    def _register(self, client: int, digest: bytes) -> object:
        existing = self.registry.get(digest)
        if existing is not None:
            seq, registrant = existing
            return ("registered", seq, digest, registrant, False)
        self.sequence += 1
        self.registry[digest] = (self.sequence, client)
        self.log.append((self.sequence, digest, client))
        return ("registered", self.sequence, digest, client, True)

    def _query(self, digest: bytes) -> object:
        existing = self.registry.get(digest)
        if existing is None:
            return ("unregistered", digest)
        seq, registrant = existing
        return ("registered", seq, digest, registrant, False)

    def snapshot(self) -> object:
        return (self.sequence, tuple(sorted(self.registry.items())))


class NotaryClient:
    """Typed wrapper.

    Confidentiality is the client's choice per request: with
    ``confidential`` (the default, and the secure way to file) every
    operation goes out encrypted; without it, in the clear, where a
    corrupted server can read a filing before it is ordered.
    """

    def __init__(self, client: ServiceClient, confidential: bool = True) -> None:
        self.client = client
        self.confidential = confidential

    def _submit(self, operation: tuple) -> int:
        if self.confidential:
            return self.client.submit_confidential(operation)
        return self.client.submit(operation)

    def register(self, document: bytes) -> int:
        """Register a document digest; first registration wins."""
        return self._submit(("register", document_digest(document)))

    def query(self, document: bytes) -> int:
        """Check whether (and to whom) a document is registered."""
        return self._submit(("query", document_digest(document)))

    def history(self, start: int = 0, count: int = 100) -> int:
        """Fetch a window of the registration audit log."""
        return self._submit(("history", start, count))
