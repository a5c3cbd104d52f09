"""Wire policy: what may cross between processes, and how much of it.

The simulator passes Python objects between nodes; a deployment passes
bytes.  The bytes are the one value grammar of :mod:`repro.codec`
(stated in docs/PROTOCOLS.md, "Encoding"), the same a hash or a
signature is computed over; what this module adds is the policy of a
channel that carries untrusted input:

* ``loads`` can only ever construct *registered* frozen dataclasses (no
  pickle), and before the first message is read every module that
  defines one has been imported — a replica decodes with the whole type
  universe whatever it happened to import itself;
* ``dumps`` refuses an unregistered dataclass at the sender;
* depth (32) and length (2^24) are bounded on both sides.

``dumps`` is also the single source of byte accounting (``Trace``, the
size experiment E12, ``bench/``): hashing calls the codec's writer
directly, so only traffic passes through here.
"""

from __future__ import annotations

import functools

from .. import codec
from ..codec import CodecError as WireError

__all__ = ["WireError", "registered_types", "dumps", "loads"]


@functools.cache
def _ensure_registry() -> None:
    """Import every module that registers a message or crypto object the
    stack sends (once, and lazily: most of them sit above this one)."""
    from ..baselines import leader_based
    from ..core import (
        atomic_broadcast,
        binary_agreement,
        consistent_broadcast,
        multivalued_agreement,
        reliable_broadcast,
        secure_causal,
    )
    from ..crypto import coin, dkg, schnorr, threshold_enc, threshold_sig, zkp
    from ..smr import reconfig, replica, state_machine


def registered_types() -> dict[str, type]:
    _ensure_registry()
    return codec.registered_types()


def dumps(value: object) -> bytes:
    """Encode a payload into canonical wire bytes."""
    _ensure_registry()
    return codec.dumps(value)


def loads(data: bytes) -> object:
    """Decode wire bytes; raises :class:`WireError` on any malformation."""
    _ensure_registry()
    return codec.loads(data)
