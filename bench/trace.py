"""Outside-in span tracer: per-layer self CPU time and call counts.

``src/`` is not edited.  :func:`install` replaces the functions and
methods of each layer's module (the table in :data:`LAYERS`) with
wrappers that push a span on a stack, so that

* a layer's *self* time is its span minus the part its child spans
  cover (work in modules that are not wrapped stays with the caller);
* a call from a layer into itself is part of the enclosing span and is
  counted once (``hash_bytes`` calling ``encode`` is one hashing call);
* callbacks count for the layer that *defines* them, not the one that
  happened to fire them (private methods are wrapped too: the atomic
  broadcast's ``_on_decision`` runs inside an agreement span).

The clock is the process CPU clock: on a box with more processes than
cores a wall-clock span would also count the time spent descheduled.
Totals are kept per layer; the first :data:`SPAN_CAP` raw spans
``(id, parent, layer, name, start_ns, end_ns)`` are kept in memory too
and written out (``bench/.work/spans-<workload>.json``) only when the
run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from collections import Counter
from collections.abc import Callable

__all__ = ["LAYERS", "SPAN_CAP", "Tracer", "install"]

SPAN_CAP = 20_000

# layer -> [(module, class name or None for module-level functions)].
# Layer names are the module names of src/repro.
LAYERS: dict[str, list[tuple[str, str | None]]] = {
    "smr.client": [("repro.smr.client", "ServiceClient")],
    "smr.replica": [("repro.smr.replica", "Replica")],
    "core.runtime": [
        ("repro.core.runtime", "ProtocolRuntime"),
        ("repro.core.protocol", "Context"),
    ],
    "core.atomic_broadcast": [
        ("repro.core.atomic_broadcast", "AtomicBroadcast"),
        ("repro.core.atomic_broadcast", None),
    ],
    "core.multivalued_agreement": [
        ("repro.core.multivalued_agreement", "MultiValuedAgreement"),
    ],
    "core.binary_agreement": [("repro.core.binary_agreement", "BinaryAgreement")],
    "core.consistent_broadcast": [
        ("repro.core.consistent_broadcast", "ConsistentBroadcast"),
        ("repro.core.consistent_broadcast", None),
    ],
    "crypto.hashing": [("repro.crypto.hashing", None)],
    "crypto.schnorr": [
        ("repro.crypto.schnorr", "VerifyKey"),
        ("repro.crypto.schnorr", "SigningKey"),
        ("repro.crypto.schnorr", None),
    ],
    "crypto.threshold_sig": [
        ("repro.crypto.threshold_sig", "QuorumCertScheme"),
        ("repro.crypto.threshold_sig", "QuorumCertShareholder"),
    ],
    "crypto.coin": [
        ("repro.crypto.coin", "CoinPublic"),
        ("repro.crypto.coin", "CoinShareholder"),
    ],
    "crypto.accel": [
        ("repro.crypto.accel", "GroupAccel"),
        ("repro.crypto.accel", "FixedBaseTable"),
        ("repro.crypto.accel", None),
    ],
    "net.simulator": [("repro.net.simulator", "Network")],
    "net.wire": [("repro.net.wire", None)],
    "net.transport": [
        ("repro.net.transport", "TransportNetwork"),
        ("repro.net.transport", "_PeerChannel"),
        ("repro.net.transport", None),
    ],
}

# Driving the simulator is the bench's own loop, not a layer: wrapping
# these would put every other span inside one ``net.simulator`` span.
_SKIP = {("repro.net.simulator", "Network"): {"run", "step", "start"}}


class Tracer:
    """Span stack with per-layer accumulators."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns) -> None:
        self.clock = clock
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        # Frames are [layer, span id, ns covered by child spans].
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [layer, self._next_id, 0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_ns[layer] += end - start - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += end - start
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent, layer, name, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self) -> dict:
        """Cumulative totals so far (JSON-ready)."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _rebind(original: object, replacement: object) -> None:
    """Point every ``from x import f`` copy of ``original`` inside the
    ``repro`` package at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function of every layer, and count messages and wire
    bytes where they are produced.  Call once, before the system under
    test creates its objects."""
    modules = {name: importlib.import_module(name) for name, _ in sum(LAYERS.values(), [])}
    for layer, targets in LAYERS.items():
        for module_name, class_name in targets:
            module = modules[module_name]
            owner = module if class_name is None else getattr(module, class_name)
            skip = _SKIP.get((module_name, class_name), set())
            for attr, value in list(vars(owner).items()):
                if not isinstance(value, types.FunctionType) or attr in skip:
                    continue
                # Coroutine functions return at once; their bodies run
                # on the event loop and stay unattributed by design.
                if (
                    value.__module__ != module_name
                    or attr.startswith("__")
                    or inspect.iscoroutinefunction(value)
                ):
                    continue
                # Module-level helpers are only ever reached through the
                # module's public functions (the recursive halves of the
                # two encoders, most of all); wrapping them would tax
                # every level of the recursion for no attribution.
                if class_name is None and attr.startswith("_"):
                    continue
                wrapped = tracer.wrap(layer, f"{class_name or module_name}.{attr}", value)
                setattr(owner, attr, wrapped)
                if class_name is None:
                    _rebind(value, wrapped)
    _count_traffic(tracer, modules)


def _count_traffic(tracer: Tracer, modules: dict[str, types.ModuleType]) -> None:
    """``net.msgs`` / ``net.wire_bytes``: one per ``send`` on either
    backend; bytes are ``wire.dumps`` output, the single serialisation
    both backends account with."""
    counters = tracer.counters
    wire = modules["repro.net.wire"]
    dumps = wire.dumps

    def counting_dumps(payload):
        encoded = dumps(payload)
        counters["net.wire_bytes"] += len(encoded)
        return encoded

    wire.dumps = counting_dumps
    for module_name, class_name in (
        ("repro.net.simulator", "Network"),
        ("repro.net.transport", "TransportNetwork"),
    ):
        cls = getattr(modules[module_name], class_name)
        send = cls.send

        def counting_send(self, sender, recipient, payload, _send=send):
            counters["net.msgs"] += 1
            return _send(self, sender, recipient, payload)

        cls.send = counting_send
