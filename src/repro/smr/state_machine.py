"""Deterministic replicated state machines (Section 5, after [34]).

Trusted applications are deterministic state machines replicated on all
servers and initialized to the same state; atomic broadcast guarantees
every replica applies the same sequence of operations, so honest
replicas stay in lock-step and clients can cross-check their answers.

A :class:`StateMachine` must be *deterministic*: ``apply`` may depend
only on the current state and the request.  Everything nondeterministic
(randomness, signatures) lives in the replica layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import register

__all__ = ["Request", "Reply", "StateMachine", "KeyValueStore"]

# Operations and results are codec-encodable values (see repro.codec):
# nested tuples of None/bool/int/str/bytes.
Operation = tuple
Result = object


@register
@dataclass(frozen=True)
class Request:
    """A client request: globally unique via (client, nonce).

    Attributes:
        client: network id of the submitting client.
        nonce: client-chosen request number (dedup / reply matching).
        operation: the application operation, e.g. ``("register", digest)``.
    """

    client: int
    nonce: int
    operation: Operation

    def encode(self) -> tuple:
        return ("req", self.client, self.nonce, self.operation)

    @staticmethod
    def decode(value: object) -> "Request | None":
        if (
            isinstance(value, tuple)
            and len(value) == 4
            and value[0] == "req"
            and isinstance(value[1], int)
            and isinstance(value[2], int)
            and isinstance(value[3], tuple)
        ):
            return Request(client=value[1], nonce=value[2], operation=value[3])
        return None


@register
@dataclass(frozen=True)
class Reply:
    """One replica's partial answer (Section 5: clients majority-vote).

    ``signature_share`` is the replica's share of the service's
    threshold signature on the root of a hash tree over the answers of
    one delivered round, and ``path`` the audit path from this answer's
    leaf ``(request digest, result)`` to that root (``()`` for a
    one-leaf tree; see :func:`repro.smr.replica.reply_tree`).  A client
    combines an honest-containing set of matching replies into a single
    service-signed answer.
    """

    replica: int
    client: int
    nonce: int
    result: Result
    signature_share: object
    path: tuple = ()


class StateMachine:
    """Interface every trusted application implements."""

    def apply(self, request: Request) -> Result:
        """Execute one operation; must be deterministic."""
        raise NotImplementedError

    def snapshot(self) -> object:
        """A comparable view of the full state (for replica consistency
        checks in tests; not used by the protocols)."""
        raise NotImplementedError

    def is_read_only(self, operation: Operation) -> bool:
        """True iff the operation commutes with everything (never
        mutates state).  Section 5: "If the client requests commute,
        reliable broadcast suffices" — replicas answer read-only
        requests directly from current state, skipping the total order
        (see :meth:`ServiceClient.submit_unordered`).  Default: nothing
        commutes; applications opt individual operations in.
        """
        return False


class KeyValueStore(StateMachine):
    """The minimal useful state machine: a versioned key-value store.

    Used by the quickstart example and as the base for the directory
    service.  Operations: ``("set", key, value)`` and ``("get", key)``.
    """

    def __init__(self) -> None:
        self.data: dict[str, object] = {}
        self.version = 0

    def apply(self, request: Request) -> Result:
        op = request.operation
        if len(op) == 3 and op[0] == "set" and isinstance(op[1], str):
            self.version += 1
            self.data[op[1]] = op[2]
            return ("ok", self.version)
        if len(op) == 2 and op[0] == "get" and isinstance(op[1], str):
            return ("value", self.data.get(op[1]))
        return ("error", "unknown operation")

    def is_read_only(self, operation: Operation) -> bool:
        return bool(operation) and operation[0] == "get"

    def snapshot(self) -> object:
        return (self.version, tuple(sorted(self.data.items())))
