"""Asyncio TCP transport: the deployment realization of the model's links.

Section 2 assumes *authenticated asynchronous point-to-point channels*.
The simulator realizes them as an in-memory pool ruled by an adversarial
scheduler; this module realizes them as real sockets:

* **Frames.**  Every message is one length-prefixed frame whose payload
  is the canonical :mod:`repro.net.wire` encoding — the transport never
  invents a second serialization, and the codec's ``MAX_LENGTH`` bound
  is enforced per frame before any allocation.
* **Authentication.**  Channels are keyed from the dealer setup
  (:func:`repro.crypto.dealer.deal_channel_keys`): each unordered pair
  of parties shares a 32-byte key and every frame carries an
  HMAC-SHA256 tag over (direction, incarnation, sequence, the ack it
  carries, payload).  A bad tag, a malformed frame or an oversized
  length drops the connection — the model's "authenticated links"
  assumption, made mechanical.
* **Eventual delivery.**  Each peer has its own outbound queue and a
  redial loop with capped exponential backoff and jitter.  A successful
  TCP write confirms nothing (the kernel buffers bytes for dead peers),
  so the receiver returns authenticated *cumulative acknowledgements*:
  on the data it sends back, and in a standalone ack frame only when
  none is going back soon enough.  Frames stay queued and are
  retransmitted on every reconnect until acknowledged, and the receiver
  deduplicates by (incarnation, sequence).  Together this gives the
  asynchronous model's eventual-delivery guarantee between honest, live
  parties without ever duplicating a delivery.
* **Callbacks, not streams.**  A message costs a share of one write and
  one read: a chunk is cut into frames, checked and dispatched in the
  socket's ``data_received``, and every frame queued for a peer goes
  out in one synchronous flush per loop turn.  Only the redial loop is
  a coroutine.

:class:`TransportNetwork` exposes the same ``attach``/``send``/
``broadcast``/``trace`` surface as the simulator's ``Network``
(:mod:`repro.net.base`), so :class:`~repro.core.runtime.ProtocolRuntime`
and :class:`~repro.smr.client.ServiceClient` run on sockets unmodified.
One :class:`TransportNetwork` hosts exactly one party — one process (or
one in-process test node) per participant.

See ``docs/DEPLOYMENT.md`` for the trust assumptions compared with the
simulator.
"""

from __future__ import annotations

import asyncio
import hmac
import random
import struct
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, cast

from ..codec import MAX_LENGTH, admits
from ..crypto.dealer import is_server
from . import wire
from .simulator import Node
from .tracing import Trace

__all__ = [
    "TransportError",
    "MAX_FRAME_BODY",
    "FrameFault",
    "FaultPlan",
    "encode_hello",
    "decode_hello",
    "encode_data",
    "decode_data",
    "encode_ack",
    "decode_ack",
    "TransportNetwork",
]


class TransportError(Exception):
    """Malformed, oversized, or unauthenticated transport frame."""


# -- fault injection hooks ----------------------------------------------------------
#
# The chaos engine (repro.net.chaos) needs to exercise the deployed
# transport under the same adversary the simulator's schedulers model:
# partitions, loss, corruption, duplication and reordering.  Rather
# than a parallel "test transport", the production code path exposes a
# small hook surface that defaults to a no-op; every fault the plan can
# express maps onto a failure mode TCP already has, so the reliability
# machinery (reconnect + retransmit + cumulative acks + dedup) is what
# gets exercised, not bypassed:
#
# * a severed link (partition) looks like dial failures / dead
#   connections;
# * a lost or corrupted frame looks like a connection reset — the
#   unacked backlog is retransmitted on reconnect (frames can never be
#   *silently* dropped mid-stream: the receiver's cumulative ack would
#   permanently skip them);
# * a duplicated frame is delivered twice and deduplicated;
# * reordering happens *above* the framing layer, by holding a payload
#   back before it is assigned a sequence number.


@dataclass(frozen=True)
class FrameFault:
    """One frame-level fault decision: an action plus an extra delay."""

    action: str = "pass"  # pass | reset | corrupt | duplicate
    delay: float = 0.0


_PASS_FRAME = FrameFault()
# A partition cutting a live connection: realized like a reset, undrawn.
_SEVERED = FrameFault("sever")
# The decisions that end a connection, and the counter each bumps.
_CLOSING = {"reset": "chaos.resets", "corrupt": "chaos.corruptions", "sever": "chaos.partitioned"}

# How often a severed sender re-checks whether its link healed.
_PARTITION_POLL = 0.05

# Handler/task exceptions kept in ``TransportNetwork.errors`` and printed.
MAX_KEPT_ERRORS = 8


class FaultPlan:
    """Fault-injection hook surface consulted by the TCP transport.

    The base class injects nothing and is the default for every
    :class:`TransportNetwork`; :class:`repro.net.chaos.SeededFaultPlan`
    overrides these hooks with seed-reproducible decisions.  All hooks
    are synchronous and must be cheap — they run on the hot path.
    """

    def start(self) -> None:
        """Anchor the plan's clock; called from ``TransportNetwork.start``."""

    def link_up(self, sender: int, recipient: int) -> bool:
        """False while the directed link is severed (partition)."""
        return True

    def frame_fault(self, sender: int, recipient: int) -> FrameFault:
        """Sampled once per data-frame write on the sender side.  A delay
        holds the frame, and the link's later frames behind it, until
        ``max(previous release, now + delay)``."""
        return _PASS_FRAME

    def send_hold(self, sender: int, recipient: int) -> float:
        """Seconds to hold a payload *before* sequencing (reorder/delay);
        0 sends immediately."""
        return 0.0


# -- frame codec -------------------------------------------------------------------
#
# frame      = length(4, big-endian) || body
# hello body = 0x01 || sender(8) || incarnation(8) || mac(32)
# data body  = 0x02 || incarnation(8) || seq(8)
#                   || ack_incarnation(8) || ack_seq(8) || mac(32) || payload
# ack body   = 0x03 || incarnation(8) || seq(8) || mac(32)
#
# The mac covers (kind, sender, recipient, the fields before it, payload)
# under the pairwise channel key, so direction is authenticated (no
# reflection) and replays across restarts land in a different
# incarnation namespace.  Acks are cumulative ("I have delivered every
# frame of your incarnation up to seq").  A data frame carries its
# sender's ack of the reverse channel; a standalone ack goes back on the
# connection the data arrived on only when _ACK_EVERY frames are owed,
# when an owed ack has waited _ACK_DELAY with no data going back, or
# when a chunk held nothing but duplicates (the sender retransmitted
# them for want of an ack).

_KIND_HELLO = 0x01
_KIND_DATA = 0x02
_KIND_ACK = 0x03
_MAC_BYTES = 32
_PAIR = struct.Struct(">QQ")  # (sender, incarnation) or (incarnation, seq)
_HELLO_BODY = _ACK_BODY = 1 + _PAIR.size + _MAC_BYTES
_DATA_FIELDS = struct.Struct(">QQQQ")  # incarnation, seq, ack_incarnation, ack_seq
_DATA_OVERHEAD = 1 + _DATA_FIELDS.size + _MAC_BYTES

# The wire codec's own length bound, enforced per frame *before* the
# body is read: no peer can make us allocate more than this.
MAX_FRAME_BODY = _DATA_OVERHEAD + MAX_LENGTH

_BACKOFF_MIN = 0.05
_BACKOFF_MAX = 2.0
_PENDING_LIMIT = 65536
# The most one flush frames (asyncio's own high-water mark for a stream).
_CHUNK = 1 << 16
# A standalone ack goes out once this many frames are owed ...
_ACK_EVERY = 64
# ... or once an owed ack has waited this long (seconds).
_ACK_DELAY = 0.2


def _tag(key: bytes, kind: int, sender: int, recipient: int, *fields: bytes) -> bytes:
    material = b"".join(
        (b"repro-channel-v2", bytes([kind]), _PAIR.pack(sender, recipient), *fields)
    )
    return hmac.digest(key, material, "sha256")


def encode_hello(key: bytes, sender: int, recipient: int, incarnation: int) -> bytes:
    """The first frame of every connection: who is dialing, and which
    process incarnation its sequence numbers belong to."""
    mac = _tag(key, _KIND_HELLO, sender, recipient, _PAIR.pack(incarnation, 0))
    body = bytes([_KIND_HELLO]) + _PAIR.pack(sender, incarnation) + mac
    return len(body).to_bytes(4, "big") + body


def decode_hello(
    body: bytes, recipient: int, key_for: Callable[[int], bytes | None]
) -> tuple[int, int]:
    """Validate a hello body; returns ``(sender, incarnation)``."""
    if len(body) != _HELLO_BODY or body[0] != _KIND_HELLO:
        raise TransportError("malformed hello frame")
    sender, incarnation = _PAIR.unpack(body[1 : 1 + _PAIR.size])
    mac = body[1 + _PAIR.size :]
    key = key_for(sender)
    if key is None:
        raise TransportError(f"no channel key for party {sender}")
    expected = _tag(key, _KIND_HELLO, sender, recipient, _PAIR.pack(incarnation, 0))
    if not hmac.compare_digest(mac, expected):
        raise TransportError("hello authentication failed")
    return sender, incarnation


def encode_data(
    key: bytes, sender: int, recipient: int, incarnation: int, seq: int,
    payload: bytes, ack_incarnation: int = 0, ack_seq: int = 0,
) -> bytes:
    """Frame one wire-encoded payload for the (sender -> recipient)
    channel, carrying the sender's cumulative ack of the reverse channel:
    every frame up to ``ack_seq`` of the recipient's ``ack_incarnation``
    (``0, 0`` acknowledges nothing)."""
    if len(payload) > MAX_LENGTH:
        raise TransportError("payload exceeds the wire length bound")
    fields = _DATA_FIELDS.pack(incarnation, seq, ack_incarnation, ack_seq)
    mac = _tag(key, _KIND_DATA, sender, recipient, fields, payload)
    length = (_DATA_OVERHEAD + len(payload)).to_bytes(4, "big")
    return b"".join((length, bytes([_KIND_DATA]), fields, mac, payload))


def decode_data(
    body: bytes, key: bytes, sender: int, recipient: int
) -> tuple[int, int, int, int, bytes]:
    """Validate a data body; returns ``(incarnation, seq, ack_incarnation,
    ack_seq, payload bytes)``."""
    if len(body) < _DATA_OVERHEAD or body[0] != _KIND_DATA:
        raise TransportError("malformed data frame")
    fields = body[1 : 1 + _DATA_FIELDS.size]
    mac = body[1 + _DATA_FIELDS.size : _DATA_OVERHEAD]
    payload = body[_DATA_OVERHEAD:]
    expected = _tag(key, _KIND_DATA, sender, recipient, fields, payload)
    if not hmac.compare_digest(mac, expected):
        raise TransportError("frame authentication failed")
    return (*_DATA_FIELDS.unpack(fields), payload)


def encode_ack(key: bytes, sender: int, recipient: int,
               incarnation: int, seq: int) -> bytes:
    """Acknowledge delivery of every frame up to ``seq`` (cumulative) of
    the recipient's ``incarnation``; sent by the receiving party."""
    fields = _PAIR.pack(incarnation, seq)
    body = bytes([_KIND_ACK]) + fields + _tag(key, _KIND_ACK, sender, recipient, fields)
    return len(body).to_bytes(4, "big") + body


def decode_ack(body: bytes, key: bytes, sender: int, recipient: int) -> tuple[int, int]:
    """Validate an ack body; returns ``(incarnation, seq)``."""
    if len(body) != _ACK_BODY or body[0] != _KIND_ACK:
        raise TransportError("malformed ack frame")
    fields = body[1 : 1 + _PAIR.size]
    expected = _tag(key, _KIND_ACK, sender, recipient, fields)
    if not hmac.compare_digest(body[1 + _PAIR.size :], expected):
        raise TransportError("ack authentication failed")
    return _PAIR.unpack(fields)


# -- connections ----------------------------------------------------------------------


def _take_frames(buffer: bytearray, data: bytes) -> list[bytes]:
    """Append a chunk to a connection's ``buffer`` and cut every complete
    frame body off its front.  Each header's length bound is checked
    before its body is buffered: a peer can make us hold one frame of at
    most ``MAX_FRAME_BODY`` bytes plus the chunk it ends in, never more.
    """
    buffer += data
    frames: list[bytes] = []
    offset = 0
    while len(buffer) - offset >= 4:
        length = int.from_bytes(buffer[offset : offset + 4], "big")
        if length == 0 or length > MAX_FRAME_BODY:
            raise TransportError("frame length out of bounds")
        end = offset + 4 + length
        if end > len(buffer):
            break
        frames.append(bytes(buffer[offset + 4 : end]))
        offset = end
    del buffer[:offset]
    return frames


@dataclass
class _InboundChannel:
    """Receive-side state for one peer incarnation: replay bookkeeping
    and the ack owed to it."""

    incarnation: int
    last_seq: int = 0
    acked: int = 0  # the highest seq an ack sent back has covered
    timer: asyncio.TimerHandle | None = None  # the delayed standalone ack
    link: "_Link | None" = None  # the connection that delivered last

    def settle(self) -> tuple[int, int]:
        """Count everything delivered as acknowledged; returns the ack."""
        self.acked = self.last_seq
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        return self.incarnation, self.last_seq


class _Link(asyncio.Protocol):
    """An accepted connection, as a thin adapter: its chunks go to
    :meth:`TransportNetwork._serve`, which holds every rule.  A frame
    refused there drops the connection; an honest peer redials and
    retransmits."""

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, net: "TransportNetwork") -> None:
        self.net = net
        self.buffer = bytearray()
        self.peer = -1
        self.inbound: _InboundChannel | None = None  # set by the hello
        self.refused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.net._links.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            self._received(data)
        except (TransportError, wire.WireError):
            self.net.trace.bump("transport.rejected")
            self.refused = True
            self.transport.abort()
        except ConnectionError:  # superseded, or severed by the chaos plan
            self.transport.abort()
        except Exception as exc:  # a bug here must not die in the loop's log
            self.net._record_error(exc, "transport.task_errors")
            self.transport.abort()

    def _received(self, data: bytes) -> None:
        self.net._serve(self, data)

    def connection_lost(self, exc: Exception | None) -> None:
        self.net._links.discard(self)
        if not self.refused and not self.net._closed:
            self.net.trace.bump("transport.disconnects")


class _Dial(_Link):
    """A connection dialed to send one peer its frames (the rules are
    :class:`_PeerChannel`'s), with the state that dies with it."""

    def __init__(self, channel: "_PeerChannel") -> None:
        super().__init__(channel.net)
        self.channel = channel
        self.paused = False
        self.written = 0  # the highest seq drawn onto this connection
        self.doomed = False  # a fault ends it: draw nothing more on it
        self.line: deque[tuple[float, str, bytes]] = deque()
        self.release = 0.0
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.channel._connected(self)

    def _received(self, data: bytes) -> None:
        self.channel._on_acks(self, data)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.channel._schedule_flush()

    def connection_lost(self, exc: Exception | None) -> None:
        self.channel._lost(self)
        if not self.lost.done():
            self.lost.set_result(None)


# -- per-peer outbound channel ------------------------------------------------------


class _PeerChannel:
    """Outbound queue, connection and redial loop for one remote peer.

    A successful TCP write proves nothing about delivery (the kernel
    happily buffers bytes for a peer that just died), so frames stay in
    ``pending`` until the receiver's cumulative ack covers their
    sequence number.  A broken connection triggers reconnection with
    capped exponential backoff plus jitter, and every still-unacked
    frame is retransmitted in order; the receiver's sequence check
    discards any frame that did survive the broken connection.

    ``pending`` holds encoded payloads, contiguous in sequence number — a
    number is assigned only to a payload that is queued, and acks pop
    from the front.  A payload is framed (and MAC'd) when it is flushed,
    so that it carries the ack of the reverse channel current then.
    """

    def __init__(self, net: "TransportNetwork", peer: int) -> None:
        self.net = net
        self.peer = peer
        self.pending: deque[tuple[int, bytes]] = deque()
        self.next_seq = 0
        self.link: _Dial | None = None  # the connection, once greeted
        self._flushing = False
        self._timer: asyncio.TimerHandle | None = None  # the delay line's
        self._loop = asyncio.get_running_loop()
        task = self._loop.create_task(self._run())
        task.add_done_callback(net._on_task_done)
        self._task = task

    def enqueue(self, payload: bytes) -> None:
        """Sequence one encoded payload; the next flush frames it."""
        if len(self.pending) >= _PENDING_LIMIT:
            self.net.trace.bump("transport.dropped")
            return
        self.next_seq += 1
        self.pending.append((self.next_seq, payload))
        self._schedule_flush()

    def acked(self, seq: int) -> None:
        """Drop every frame up to ``seq`` from the unacked queue."""
        pending = self.pending
        while pending and pending[0][0] <= seq:
            pending.popleft()

    def stop(self) -> None:
        self._task.cancel()
        if self.link is not None:
            self.link.transport.abort()
            self.link = None

    async def _run(self) -> None:
        """Dial, then wait for the connection to end; redial with capped
        exponential backoff plus jitter.  Everything else happens in the
        connection's callbacks."""
        delay = _BACKOFF_MIN
        while not self.net._closed:
            if not self.net.faults.link_up(self.net.party, self.peer):
                # The chaos plan severed this link: do not even dial.
                self.net.trace.bump("chaos.partitioned")
                await asyncio.sleep(_PARTITION_POLL)
                continue
            try:
                host, port = self.net.addresses[self.peer]
                _, link = await self._loop.create_connection(
                    lambda: _Dial(self), host, port
                )
            except OSError:
                self.net.trace.bump("transport.reconnects")
            else:
                delay = _BACKOFF_MIN  # connected: reset the backoff window
                self.net.trace.bump("transport.connects")
                try:
                    await link.lost
                finally:
                    link.transport.abort()
                self.net.trace.bump("transport.reconnects")
            if self.net._closed:
                return
            await asyncio.sleep(delay + self.net.rng.uniform(0, delay / 2))
            delay = min(delay * 2, _BACKOFF_MAX)

    def _connected(self, link: _Dial) -> None:
        """Greet on a fresh connection, then retransmit every unacked
        frame on it, oldest first."""
        net = self.net
        if net._closed or net._channels.get(self.peer) is not self:
            link.transport.abort()  # stopped while dialing
            return
        link.transport.write(encode_hello(
            net.channel_keys[self.peer], net.party, self.peer, net.incarnation
        ))
        self.link = link
        self._schedule_flush()

    def _lost(self, link: _Dial) -> None:
        if link is self.link:
            self.link = None

    def _schedule_flush(self) -> None:
        if not self._flushing and self.link is not None:
            self._flushing = True
            self._loop.call_soon(self._flush)

    def _released(self) -> None:
        self._timer = None
        self._flush()

    def _flush(self) -> None:
        """Frame every queued payload beyond ``link.written`` (at most
        ``_CHUNK`` bytes a turn, none while the transport is paused) and
        write what is due with one ``write``.

        Each frame carries the ack of the reverse channel current now and
        draws one chaos decision, in sequence order.  A delay holds it in
        the connection's delay line until ``max(previous release, now +
        delay)``: later frames wait in order behind it, not for the sum of
        the delays.  Loss and corruption are realized as connection resets
        when the frame is due, so the redial retransmits the unacked
        backlog (a skipped frame would be jumped over for good by the
        cumulative ack); the frames ahead of it still go out.
        """
        self._flushing = False
        link = self.link
        if link is None or link.paused or link.transport.is_closing():
            return
        net = self.net
        faults = net.faults
        pending = self.pending
        line = link.line
        now = self._loop.time()
        start = max(0, link.written + 1 - pending[0][0]) if pending else 0
        if start < len(pending) and not link.doomed:
            ack_incarnation, ack_seq = net._ack_for(self.peer)
            key = net.channel_keys[self.peer]
            framed = 0
            for seq, payload in islice(pending, start, None):
                if framed >= _CHUNK:
                    self._schedule_flush()
                    break
                if faults.link_up(net.party, self.peer):
                    fault = faults.frame_fault(net.party, self.peer)
                else:
                    fault = _SEVERED
                frame = encode_data(
                    key, net.party, self.peer, net.incarnation, seq, payload,
                    ack_incarnation, ack_seq,
                )
                link.release = max(link.release, now + fault.delay)
                line.append((link.release, fault.action, frame))
                link.written = seq
                framed += len(frame)
                if fault.action in _CLOSING:
                    link.doomed = True
                    break
        chunks: list[bytes] = []
        while line and line[0][0] <= now:
            _, action, frame = line.popleft()
            if action in _CLOSING:
                net.trace.bump(_CLOSING[action])
                if action == "corrupt":
                    # Flip one payload byte: the receiver's HMAC check
                    # MUST reject it and drop the connection; the intact
                    # frame is retransmitted on the redial.
                    chunks.append(frame[:-1] + bytes([frame[-1] ^ 0x01]))
                link.transport.write(b"".join(chunks))
                link.transport.close()  # flushes what is written first
                return
            chunks.append(frame)
            if action == "duplicate":
                net.trace.bump("chaos.duplicated")
                chunks.append(frame)
        if chunks:
            link.transport.write(b"".join(chunks))
        if line and self._timer is None:
            self._timer = self._loop.call_at(line[0][0], self._released)

    def _on_acks(self, link: _Dial, data: bytes) -> None:
        """Prune the unacked queue by the receiver's standalone acks."""
        net = self.net
        key = net.channel_keys[self.peer]
        for body in _take_frames(link.buffer, data):
            incarnation, seq = decode_ack(body, key, self.peer, net.party)
            if incarnation == net.incarnation:  # else: for a previous life
                self.acked(seq)


# -- the network -------------------------------------------------------------------


class TransportNetwork:
    """One party's view of the network, over real TCP sockets.

    Mirrors the simulator's ``Network`` surface (``attach`` / ``send`` /
    ``broadcast`` / ``trace``) for a single local party; remote parties
    are reached through ``addresses`` (party id -> ``(host, port)``)
    using the pairwise ``channel_keys`` dealt by the trusted dealer.

    Must be used from within a running asyncio event loop::

        net = TransportNetwork(party, addresses, channel_keys)
        net.attach(party, node)
        await net.start()
        ...
        await net.close()
    """

    def __init__(
        self,
        party: int,
        addresses: dict[int, tuple[str, int]],
        channel_keys: dict[int, bytes],
        rng: random.Random | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.party = party
        self.addresses = dict(addresses)
        self.channel_keys = dict(channel_keys)
        self.rng = rng or random.Random()
        self.faults = faults or FaultPlan()
        self.trace = Trace()
        self.node: Node | None = None
        self.errors: list[BaseException] = []
        self.incarnation = self.rng.getrandbits(63)
        self._channels: dict[int, _PeerChannel] = {}
        self._inbound: dict[int, _InboundChannel] = {}
        self._links: set[_Link] = set()  # accepted connections
        self._forgotten: set[int] = set()
        self._server: asyncio.Server | None = None
        self._closed = False
        self._delivery_event = asyncio.Event()
        # The last payload encoded and its bytes: see _encode.
        self._encoded: tuple[object, bytes] | None = None

    # -- topology ----------------------------------------------------------

    def attach(self, party: int, node: Node) -> None:
        """Attach the local node (one party per transport instance)."""
        if party != self.party:
            raise ValueError(
                f"transport for party {self.party} cannot host party {party}"
            )
        self.node = node

    def forget_peer(self, party: int) -> None:
        """Drop a departed peer entirely: address, channel key, outbound
        queue/connection and inbound replay state.

        Called by the host when an ordered ``Reconfigure(remove)``
        commits.  A later ``add`` that reuses the id then starts from a
        clean slate — fresh identity-derived channel key, the address
        carried by the new ordered op, fresh sequence numbers — instead
        of inheriting stale contact info that would leave the rejoined
        replica unreachable.  Late sends to a forgotten peer are
        silently dropped (counted in the trace), not errors: protocol
        instances from closed epochs may still address it.
        """
        channel = self._channels.pop(party, None)
        if channel is not None:
            channel.stop()
        self._inbound.pop(party, None)
        self.addresses.pop(party, None)
        self.channel_keys.pop(party, None)
        self._forgotten.add(party)

    def admit_peer(self, party: int, address: tuple[str, int] | None, channel_key: bytes) -> None:
        """(Re-)admit a peer with the address carried by the ordered
        ``Reconfigure(add)`` and the identity-derived channel key — the
        ordered op is authoritative, so any stale entry for a previously
        removed holder of the same id is overwritten, not kept.
        ``address`` ``None`` keeps the address already known."""
        self._forgotten.discard(party)
        if address is not None:
            self.addresses[party] = address
        self.channel_keys[party] = channel_key

    @property
    def parties(self) -> list[int]:
        return sorted(set(self.addresses) | {self.party})

    @property
    def listen_address(self) -> tuple[str, int]:
        return self.addresses[self.party]

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (port 0 allocates a free port) and start
        accepting authenticated peer connections."""
        self.faults.start()
        host, port = self.addresses.get(self.party, ("127.0.0.1", 0))
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Link(self), host, port
        )
        if self._closed:
            self._server.close()
            return
        bound = self._server.sockets[0].getsockname()
        self.addresses[self.party] = (host, bound[1])

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, cancel every connection."""
        if self._closed:
            return
        self._closed = True
        self._delivery_event.set()  # release any wait_until() waiters
        for channel in self._channels.values():
            channel.stop()
        for link in list(self._links):
            link.transport.abort()
        if self._server is not None:
            self._server.close()
        pending = [c._task for c in self._channels.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # -- sending -----------------------------------------------------------

    def send(self, sender: int, recipient: int, payload: object) -> None:
        """Queue a point-to-point message (authenticated by the channel
        key; the wire codec is the single serialization and the single
        source of truth for byte accounting)."""
        if self._closed:
            return
        if recipient != self.party and recipient not in self.addresses:
            if recipient in self._forgotten:
                # A closed epoch's protocol instance addressing a
                # removed member: drop quietly, it is gone by agreement.
                self.trace.bump("transport.departed_drops")
                return
            raise ValueError(f"unknown recipient {recipient}")
        encoded = self._encode(payload)
        self.trace.record_send(sender, recipient, payload, encoded=encoded)
        if recipient == self.party:
            # Self-delivery is still asynchronous (never inline), exactly
            # like the simulator's self-messages through the pool — and,
            # like there, it hands over the object that was sent.
            asyncio.get_running_loop().call_soon(
                self._dispatch, self.party, payload
            )
            return
        if self.channel_keys.get(recipient) is None:
            raise TransportError(f"no channel key for party {recipient}")
        hold = self.faults.send_hold(self.party, recipient)
        if hold > 0:
            # Reordering happens here, above the framing layer: the held
            # payload is sequenced only when it is finally enqueued, so
            # payloads sent after it overtake it without violating the
            # per-connection in-order invariant the acks rely on.
            self.trace.bump("chaos.held")
            asyncio.get_running_loop().call_later(
                hold, self._enqueue_payload, recipient, encoded
            )
            return
        self._enqueue_payload(recipient, encoded)

    def _encode(self, payload: object) -> bytes:
        """``wire.dumps``, once per payload object however many peers it
        goes to: a broadcast, and a client's fan-out of one request to n
        servers, ``send`` the same object n times in a row.

        The memo is one slot keyed on identity; it holds the payload so
        the identity cannot be reused.  Payloads are values — tuples of
        frozen dataclasses that the simulator, too, hands to n parties
        as one object — and are not mutated once sent.
        """
        memo = self._encoded
        if memo is not None and memo[0] is payload:
            return memo[1]
        try:
            encoded = wire.dumps(payload)
        except wire.WireError as exc:
            raise TransportError(f"unencodable payload: {exc}") from exc
        if len(encoded) > MAX_LENGTH:
            raise TransportError("payload exceeds the wire length bound")
        self._encoded = (payload, encoded)
        return encoded

    def _enqueue_payload(self, recipient: int, encoded: bytes) -> None:
        """Hand one encoded payload to the recipient's outbound channel."""
        if self._closed:
            return
        channel = self._channels.get(recipient)
        if channel is None:
            channel = _PeerChannel(self, recipient)
            self._channels[recipient] = channel
        channel.enqueue(encoded)

    def broadcast(self, sender: int, payload: object) -> None:
        """Send to every known server, including the local one (clients
        are outside the group: see ``NetworkBackend.broadcast``)."""
        for recipient in self.parties:
            if is_server(recipient):
                self.send(sender, recipient, payload)

    # -- receiving ---------------------------------------------------------

    def _serve(self, link: _Link, data: bytes) -> None:
        """Deliver every frame an accepted connection's chunk completes —
        the dialer's hello first, data after it — then apply the ack rule.

        Any violation (oversized length, garbage framing, a bad HMAC, an
        undecodable payload, a stale incarnation) raises, and ``link``
        drops the connection on the spot.
        """
        frames = _take_frames(link.buffer, data)
        if frames and link.inbound is None:
            peer, incarnation = decode_hello(
                frames.pop(0), self.party, self.channel_keys.get
            )
            inbound = self._inbound.get(peer)
            if inbound is None or inbound.incarnation != incarnation:
                # A restarted peer gets a fresh replay namespace.
                inbound = _InboundChannel(incarnation=incarnation)
                self._inbound[peer] = inbound
            link.peer, link.inbound = peer, inbound
        if not frames:
            return
        peer, inbound = link.peer, link.inbound
        inbound.link = link
        fresh = False
        for body in frames:
            if self._inbound.get(peer) is not inbound:
                # A newer connection from a restarted peer replaced this
                # channel (or the peer was forgotten); updating the
                # orphaned object would silently drop its replay
                # bookkeeping.  Drop the old connection.
                raise ConnectionResetError("superseded inbound channel")
            if self._closed:
                return
            if not self.faults.link_up(peer, self.party):
                # Partition enforced on the receive side too, so a cut
                # holds even when only one endpoint has a plan.
                self.trace.bump("chaos.partitioned")
                raise ConnectionResetError("chaos: link severed")
            incarnation, seq, ack_incarnation, ack_seq, payload = decode_data(
                body, self.channel_keys[peer], peer, self.party
            )
            if incarnation != inbound.incarnation:
                raise TransportError("stale incarnation")
            if ack_incarnation == self.incarnation and peer in self._channels:
                self._channels[peer].acked(ack_seq)
            if seq > inbound.last_seq:
                inbound.last_seq = seq
                fresh = True
                self._dispatch(peer, wire.loads(payload))
            else:
                self.trace.bump("transport.duplicates")
        if not fresh or inbound.last_seq - inbound.acked >= _ACK_EVERY:
            self._send_ack(inbound)
        elif inbound.timer is None:
            inbound.timer = asyncio.get_running_loop().call_later(
                _ACK_DELAY, self._send_ack, inbound
            )

    def _send_ack(self, inbound: _InboundChannel) -> None:
        """Ack everything delivered from ``inbound``'s peer, back on the
        connection that delivered last (if that one is closing, the peer
        redials and retransmits, which draws the ack anew)."""
        link = inbound.link
        incarnation, seq = inbound.settle()
        if self._inbound.get(link.peer) is inbound and not link.transport.is_closing():
            link.transport.write(encode_ack(
                self.channel_keys[link.peer], self.party, link.peer, incarnation, seq
            ))

    def _ack_for(self, peer: int) -> tuple[int, int]:
        """The ack a data frame to ``peer`` carries: everything delivered
        from its incarnation, which no standalone ack then needs to
        repeat.  ``(0, 0)`` acknowledges nothing."""
        inbound = self._inbound.get(peer)
        return (0, 0) if inbound is None else inbound.settle()

    def _dispatch(self, sender: int, payload: object) -> None:
        if self._closed or self.node is None:
            return
        self.trace.record_delivery(None)
        if not admits(payload):
            self.trace.bump("admission.dropped")
            return
        try:
            self.node.on_message(sender, payload)
        except Exception as exc:  # a handler bug must not kill the link
            self._record_error(exc, "transport.handler_errors")
        self._delivery_event.set()

    def defer(self, party: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after every frame this loop iteration
        dispatched (``NetworkBackend.defer``): a turn is one iteration.
        A failure counts as a handler error; a closed network's or a
        replaced node's callback never runs."""
        asyncio.get_running_loop().call_soon(self._end_turn, self.node, callback)

    def call_later(self, party: int, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now by the event loop's
        clock (``NetworkBackend.call_later``), as a turn's end is run."""
        asyncio.get_running_loop().call_later(delay, self._end_turn, self.node, callback)

    def _end_turn(self, node: Node | None, callback: Callable[[], None]) -> None:
        if self._closed or self.node is not node:
            return
        try:
            callback()
        except Exception as exc:
            self._record_error(exc, "transport.handler_errors")
        self._delivery_event.set()

    # -- waiting -----------------------------------------------------------

    async def wait_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> None:
        """Block until ``predicate()`` holds, re-checking after every
        local delivery; raises ``asyncio.TimeoutError`` on timeout."""
        async def _poll() -> None:
            while not predicate():
                if self._closed:
                    raise TransportError("transport closed while waiting")
                self._delivery_event.clear()
                await self._delivery_event.wait()

        await asyncio.wait_for(_poll(), timeout)

    # -- task bookkeeping --------------------------------------------------

    def _on_task_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._record_error(exc, "transport.task_errors")

    def _record_error(self, exc: BaseException, counter: str) -> None:
        """Count every handler/task failure; keep and print (stderr) the
        first ``MAX_KEPT_ERRORS`` of this network — one per process in a
        deployment — so a bug is visible without growing without bound."""
        self.trace.bump(counter)
        if len(self.errors) < MAX_KEPT_ERRORS:
            self.errors.append(exc)
            traceback.print_exception(exc)
