"""Asynchronous network substrate: the simulator, adversarial
schedulers, corruption harness, tracing, and the asyncio TCP transport
(``repro.net.transport`` / ``repro.net.runtime``) that runs the same
protocol stack over real sockets on HMAC-authenticated channels."""

from .adversary import (
    CorruptionController,
    CrashNode,
    MutatingNode,
    SilentNode,
    SpamNode,
)
from .attacks import (
    CoinShareReplayer,
    DivergentAbcProposer,
    EquivocatingCbcSender,
    EquivocatingRbcSender,
    TwoFacedVoter,
)
from .base import NetworkBackend
from .scheduler import (
    DelayScheduler,
    FifoScheduler,
    PartitionScheduler,
    RandomScheduler,
    ReorderScheduler,
    Scheduler,
    StarvingScheduler,
)
from .simulator import Envelope, LivenessError, Network, Node
from .tracing import Trace
from .transport import TransportError, TransportNetwork

__all__ = [
    "CorruptionController",
    "CrashNode",
    "MutatingNode",
    "SilentNode",
    "SpamNode",
    "CoinShareReplayer",
    "DivergentAbcProposer",
    "EquivocatingCbcSender",
    "EquivocatingRbcSender",
    "TwoFacedVoter",
    "NetworkBackend",
    "DelayScheduler",
    "FifoScheduler",
    "PartitionScheduler",
    "RandomScheduler",
    "ReorderScheduler",
    "Scheduler",
    "StarvingScheduler",
    "Envelope",
    "LivenessError",
    "Network",
    "Node",
    "Trace",
    "TransportError",
    "TransportNetwork",
]
