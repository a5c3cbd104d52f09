"""The paper's protocol stack (Section 3), bottom-up:

broadcast primitives (reliable, consistent) and randomized binary
Byzantine agreement; multi-valued agreement with external validity;
atomic broadcast; secure causal atomic broadcast.
"""

from .atomic_broadcast import AbcProposal, AtomicBroadcast, abc_session
from .binary_agreement import BinaryAgreement, aba_session
from .consistent_broadcast import (
    CbcDelivery,
    ConsistentBroadcast,
    cbc_session,
    verify_commit_certificate,
)
from .multivalued_agreement import (
    MultiValuedAgreement,
    MvbaDecision,
    mvba_session,
)
from .protocol import Context, Protocol, SessionId
from .reliable_broadcast import ReliableBroadcast, rbc_session
from .runtime import ProtocolRuntime
from .secure_causal import SecureCausalBroadcast, sc_abc_session

__all__ = [
    "AbcProposal",
    "AtomicBroadcast",
    "abc_session",
    "BinaryAgreement",
    "aba_session",
    "CbcDelivery",
    "ConsistentBroadcast",
    "cbc_session",
    "verify_commit_certificate",
    "MultiValuedAgreement",
    "MvbaDecision",
    "mvba_session",
    "Context",
    "Protocol",
    "SessionId",
    "ReliableBroadcast",
    "rbc_session",
    "ProtocolRuntime",
    "SecureCausalBroadcast",
    "sc_abc_session",
]
