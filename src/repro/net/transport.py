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
  HMAC-SHA256 tag over (direction, incarnation, sequence, payload).  A
  bad tag, a malformed frame or an oversized length drops the
  connection — the model's "authenticated links" assumption, made
  mechanical.
* **Eventual delivery.**  Each peer has its own outbound queue drained
  by a connection task with reconnect, capped exponential backoff and
  jitter.  A successful TCP write confirms nothing (the kernel buffers
  bytes for dead peers), so the receiver returns authenticated
  *cumulative acknowledgements* on the same connection; frames stay
  queued and are retransmitted on every reconnect until acknowledged,
  and the receiver deduplicates by (incarnation, sequence).  Together
  this gives the asynchronous model's eventual-delivery guarantee
  between honest, live parties without ever duplicating a delivery.
* **Batches.**  A message costs a share of one write, one read and one
  ack: the sender writes every frame queued for a peer at once, the
  receiver takes every complete frame out of each chunk it reads and
  then acknowledges the last of them.

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
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Coroutine

from ..codec import MAX_LENGTH
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
        """Sampled once per data-frame write on the sender side."""
        return _PASS_FRAME

    def send_hold(self, sender: int, recipient: int) -> float:
        """Seconds to hold a payload *before* sequencing (reorder/delay);
        0 sends immediately."""
        return 0.0


# -- frame codec -------------------------------------------------------------------
#
# frame     = length(4, big-endian) || body
# hello body = 0x01 || sender(8) || incarnation(8) || mac(32)
# data body  = 0x02 || incarnation(8) || seq(8) || mac(32) || payload
# ack body   = 0x03 || incarnation(8) || seq(8) || mac(32)
#
# The mac covers (kind, sender, recipient, incarnation, seq, payload)
# under the pairwise channel key, so direction is authenticated (no
# reflection) and replays across restarts land in a different
# incarnation namespace.  Acks are cumulative ("I have delivered every
# frame of your incarnation up to seq") and flow back on the same
# connection the data arrived on: at least one per chunk the receiver
# reads, after the last data frame in it — not one per frame.

_KIND_HELLO = 0x01
_KIND_DATA = 0x02
_KIND_ACK = 0x03
_MAC_BYTES = 32
_ID_BYTES = 8
_HELLO_BODY = 1 + 2 * _ID_BYTES + _MAC_BYTES
_ACK_BODY = 1 + 2 * _ID_BYTES + _MAC_BYTES
_DATA_OVERHEAD = 1 + 2 * _ID_BYTES + _MAC_BYTES

# The wire codec's own length bound, enforced per frame *before* the
# body is read: no peer can make us allocate more than this.
MAX_FRAME_BODY = _DATA_OVERHEAD + MAX_LENGTH

_BACKOFF_MIN = 0.05
_BACKOFF_MAX = 2.0
_PENDING_LIMIT = 65536
# One socket read, and the most a batch of frames buffers before it is
# written out (asyncio's own high-water mark for a stream).
_CHUNK = 1 << 16


def _tag(
    key: bytes, kind: int, sender: int, recipient: int,
    incarnation: int, seq: int, payload: bytes,
) -> bytes:
    material = b"".join(
        (
            b"repro-channel-v1",
            bytes([kind]),
            sender.to_bytes(_ID_BYTES, "big"),
            recipient.to_bytes(_ID_BYTES, "big"),
            incarnation.to_bytes(_ID_BYTES, "big"),
            seq.to_bytes(_ID_BYTES, "big"),
            payload,
        )
    )
    return hmac.digest(key, material, "sha256")


def encode_hello(key: bytes, sender: int, recipient: int, incarnation: int) -> bytes:
    """The first frame of every connection: who is dialing, and which
    process incarnation its sequence numbers belong to."""
    mac = _tag(key, _KIND_HELLO, sender, recipient, incarnation, 0, b"")
    body = (
        bytes([_KIND_HELLO])
        + sender.to_bytes(_ID_BYTES, "big")
        + incarnation.to_bytes(_ID_BYTES, "big")
        + mac
    )
    return len(body).to_bytes(4, "big") + body


def decode_hello(
    body: bytes, recipient: int, key_for: Callable[[int], bytes | None]
) -> tuple[int, int]:
    """Validate a hello body; returns ``(sender, incarnation)``."""
    if len(body) != _HELLO_BODY or body[0] != _KIND_HELLO:
        raise TransportError("malformed hello frame")
    sender = int.from_bytes(body[1 : 1 + _ID_BYTES], "big")
    incarnation = int.from_bytes(body[1 + _ID_BYTES : 1 + 2 * _ID_BYTES], "big")
    mac = body[1 + 2 * _ID_BYTES :]
    key = key_for(sender)
    if key is None:
        raise TransportError(f"no channel key for party {sender}")
    expected = _tag(key, _KIND_HELLO, sender, recipient, incarnation, 0, b"")
    if not hmac.compare_digest(mac, expected):
        raise TransportError("hello authentication failed")
    return sender, incarnation


def encode_data(
    key: bytes, sender: int, recipient: int,
    incarnation: int, seq: int, payload: bytes,
) -> bytes:
    """Frame one wire-encoded payload for the (sender -> recipient) channel."""
    if len(payload) > MAX_LENGTH:
        raise TransportError("payload exceeds the wire length bound")
    mac = _tag(key, _KIND_DATA, sender, recipient, incarnation, seq, payload)
    body = (
        bytes([_KIND_DATA])
        + incarnation.to_bytes(_ID_BYTES, "big")
        + seq.to_bytes(_ID_BYTES, "big")
        + mac
        + payload
    )
    return len(body).to_bytes(4, "big") + body


def decode_data(
    body: bytes, key: bytes, sender: int, recipient: int
) -> tuple[int, int, bytes]:
    """Validate a data body; returns ``(incarnation, seq, payload bytes)``."""
    if len(body) < _DATA_OVERHEAD or body[0] != _KIND_DATA:
        raise TransportError("malformed data frame")
    incarnation = int.from_bytes(body[1 : 1 + _ID_BYTES], "big")
    seq = int.from_bytes(body[1 + _ID_BYTES : 1 + 2 * _ID_BYTES], "big")
    mac = body[1 + 2 * _ID_BYTES : _DATA_OVERHEAD]
    payload = body[_DATA_OVERHEAD:]
    expected = _tag(key, _KIND_DATA, sender, recipient, incarnation, seq, payload)
    if not hmac.compare_digest(mac, expected):
        raise TransportError("frame authentication failed")
    return incarnation, seq, payload


def encode_ack(key: bytes, sender: int, recipient: int,
               incarnation: int, seq: int) -> bytes:
    """Acknowledge delivery of every frame up to ``seq`` (cumulative) of
    the recipient's ``incarnation``; sent by the receiving party."""
    mac = _tag(key, _KIND_ACK, sender, recipient, incarnation, seq, b"")
    body = (
        bytes([_KIND_ACK])
        + incarnation.to_bytes(_ID_BYTES, "big")
        + seq.to_bytes(_ID_BYTES, "big")
        + mac
    )
    return len(body).to_bytes(4, "big") + body


def decode_ack(body: bytes, key: bytes, sender: int, recipient: int) -> tuple[int, int]:
    """Validate an ack body; returns ``(incarnation, seq)``."""
    if len(body) != _ACK_BODY or body[0] != _KIND_ACK:
        raise TransportError("malformed ack frame")
    incarnation = int.from_bytes(body[1 : 1 + _ID_BYTES], "big")
    seq = int.from_bytes(body[1 + _ID_BYTES : 1 + 2 * _ID_BYTES], "big")
    mac = body[1 + 2 * _ID_BYTES :]
    expected = _tag(key, _KIND_ACK, sender, recipient, incarnation, seq, b"")
    if not hmac.compare_digest(mac, expected):
        raise TransportError("ack authentication failed")
    return incarnation, seq


# -- frames off a stream -------------------------------------------------------------


class _FrameReader:
    """Length-prefixed frame bodies off a stream, a chunk at a time.

    The length bound is checked on the header, before the body is
    awaited: a peer can make us hold one frame of at most
    ``MAX_FRAME_BODY`` bytes plus the chunk it ends in, never more.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = bytearray()

    async def read_frames(self) -> list[bytes]:
        """Read until a frame is complete; return every complete frame
        buffered by then, in order."""
        buffer = self._buffer
        frames: list[bytes] = []
        while True:
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
            if frames:
                return frames
            chunk = await self._reader.read(_CHUNK)
            if not chunk:
                raise asyncio.IncompleteReadError(bytes(buffer), None)
            buffer += chunk


# -- per-peer outbound channel ------------------------------------------------------


@dataclass
class _InboundChannel:
    """Receive-side replay state for one peer."""

    incarnation: int
    last_seq: int = 0


class _PeerChannel:
    """Outbound queue + connection task for one remote peer.

    A successful TCP write proves nothing about delivery (the kernel
    happily buffers bytes for a peer that just died), so frames stay in
    ``pending`` until the receiver's cumulative ack covers their
    sequence number.  A broken connection triggers reconnection with
    capped exponential backoff plus jitter, and every still-unacked
    frame is retransmitted in order; the receiver's sequence check
    discards any frame that did survive the broken connection.

    ``pending`` is contiguous in sequence number — a number is assigned
    only to a frame that is queued, and acks pop from the front — so
    the frame with number ``seq`` sits at index ``seq - pending[0][0]``.
    """

    def __init__(self, net: "TransportNetwork", peer: int) -> None:
        self.net = net
        self.peer = peer
        self.pending: deque[tuple[int, bytes]] = deque()
        self.next_seq = 0
        self._wake = asyncio.Event()
        task = asyncio.get_running_loop().create_task(self._run())
        task.add_done_callback(net._on_task_done)
        self._task = task

    def enqueue(self, payload: bytes) -> None:
        """Sequence and frame one encoded payload."""
        net = self.net
        if len(self.pending) >= _PENDING_LIMIT:
            net.trace.bump("transport.dropped")
            return
        seq = self.next_seq + 1
        frame = encode_data(
            net.channel_keys[self.peer], net.party, self.peer,
            net.incarnation, seq, payload,
        )
        self.next_seq = seq
        self.pending.append((seq, frame))
        self._wake.set()

    def stop(self) -> None:
        self._task.cancel()

    async def _run(self) -> None:
        delay = _BACKOFF_MIN
        while True:
            if self.net._closed:
                return
            if not self.net.faults.link_up(self.net.party, self.peer):
                # The chaos plan severed this link: do not even dial.
                self.net.trace.bump("chaos.partitioned")
                await asyncio.sleep(_PARTITION_POLL)
                continue
            writer = None
            ack_task = None
            try:
                host, port = self.net.addresses[self.peer]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(self.net._hello_frame(self.peer))
                await writer.drain()
                delay = _BACKOFF_MIN  # connected: reset the backoff window
                self.net.trace.bump("transport.connects")
                loop = asyncio.get_running_loop()
                ack_task = loop.create_task(self._read_acks(reader))
                ack_task.add_done_callback(self._on_ack_done)
                await self._pump(writer, ack_task)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                self.net.trace.bump("transport.reconnects")
            except TransportError:
                self.net.trace.bump("transport.rejected")
            finally:
                if ack_task is not None:
                    ack_task.cancel()
                if writer is not None:
                    writer.close()
            if self.net._closed:
                return
            # Capped exponential backoff with jitter before redialing.
            await asyncio.sleep(delay + self.net.rng.uniform(0, delay / 2))
            delay = min(delay * 2, _BACKOFF_MAX)

    async def _pump(
        self, writer: asyncio.StreamWriter, ack_task: asyncio.Task
    ) -> None:
        """Write every unacked frame, oldest first, then follow the queue.

        ``written`` tracks the highest sequence sent on *this*
        connection; a fresh connection starts at 0 and therefore
        retransmits the whole unacked backlog.  Each turn takes every
        frame queued beyond it as one batch.
        """
        written = 0
        pending = self.pending
        while True:
            if self.net._closed:
                return
            if ack_task.done():
                # The read side died (connection lost or a bad ack);
                # surface its verdict and let _run reconnect.
                exc = ack_task.exception()
                raise exc if exc is not None else ConnectionResetError()
            # An ack may cover frames an earlier connection delivered
            # and this one never wrote: then the front is already past
            # ``written`` and everything queued is still to write.
            start = max(0, written + 1 - pending[0][0]) if pending else 0
            if start >= len(pending):
                self._wake.clear()
                await self._wake.wait()
                continue
            written = await self._write_batch(
                writer, list(islice(pending, start, None))
            )

    async def _write_batch(
        self, writer: asyncio.StreamWriter, frames: list[tuple[int, bytes]]
    ) -> int:
        """Write ``frames`` with one ``write`` and one ``drain``; returns
        the last sequence number written.

        The chaos plan is consulted for each frame, in order, as if each
        were written alone.  Loss and corruption are realized as
        connection resets so the reconnect path retransmits the unacked
        backlog — a frame that was simply skipped would be permanently
        jumped over by the receiver's cumulative ack.  The frames ahead
        of the faulted one still go out; the rest wait for the redial.
        """
        net = self.net
        faults = net.faults
        chunks: list[bytes] = []
        buffered = 0
        try:
            for _, data in frames:
                if not faults.link_up(net.party, self.peer):
                    # A partition severing a *live* connection mid-stream.
                    net.trace.bump("chaos.partitioned")
                    raise ConnectionResetError("chaos: link severed")
                fault = faults.frame_fault(net.party, self.peer)
                if fault.delay > 0:
                    writer.writelines(chunks)
                    chunks.clear()
                    buffered = 0
                    await asyncio.sleep(fault.delay)
                if fault.action == "reset":
                    net.trace.bump("chaos.resets")
                    raise ConnectionResetError(
                        "chaos: frame dropped, connection reset"
                    )
                if fault.action == "corrupt":
                    # Flip one payload byte: the receiver's HMAC check
                    # MUST reject the frame and drop the connection; we
                    # reset our side immediately and retransmit the
                    # intact frame.
                    corrupted = bytearray(data)
                    corrupted[-1] ^= 0x01
                    chunks.append(bytes(corrupted))
                    net.trace.bump("chaos.corruptions")
                    raise ConnectionResetError("chaos: frame corrupted")
                chunks.append(data)
                if fault.action == "duplicate":
                    net.trace.bump("chaos.duplicated")
                    chunks.append(data)
                buffered += len(data)
                if buffered >= _CHUNK:
                    # Bound what a long backlog copies into the socket
                    # buffer at once.
                    writer.writelines(chunks)
                    chunks.clear()
                    buffered = 0
                    await writer.drain()
        finally:
            # Closing the writer flushes what is buffered, so this also
            # delivers the frames a fault cut the batch short behind.
            writer.writelines(chunks)
        await writer.drain()
        return frames[-1][0]

    def _on_ack_done(self, task: asyncio.Task) -> None:
        if not task.cancelled():
            task.exception()  # retrieved here; the pump re-raises it
        self._wake.set()  # unblock a pump waiting with an empty queue

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        """Prune the unacked queue as the receiver's cumulative acks
        arrive."""
        key = self.net.channel_keys[self.peer]
        pending = self.pending
        frames = _FrameReader(reader)
        while True:
            for body in await frames.read_frames():
                incarnation, seq = decode_ack(body, key, self.peer, self.net.party)
                if incarnation != self.net.incarnation:
                    continue  # ack for a previous life of this process
                while pending and pending[0][0] <= seq:
                    pending.popleft()


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
        self._forgotten: set[int] = set()
        self._server: asyncio.Server | None = None
        self._tasks: set[asyncio.Task] = set()
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

    def admit_peer(
        self, party: int, address: tuple[str, int], channel_key: bytes
    ) -> None:
        """(Re-)admit a peer with the address carried by the ordered
        ``Reconfigure(add)`` and the identity-derived channel key — the
        ordered op is authoritative, so any stale entry for a previously
        removed holder of the same id is overwritten, not kept."""
        self._forgotten.discard(party)
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
        self._server = await asyncio.start_server(self._on_connection, host, port)
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
        for task in list(self._tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
        pending = [c._task for c in self._channels.values()] + list(self._tasks)
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

    def _hello_frame(self, peer: int) -> bytes:
        return encode_hello(
            self.channel_keys[peer], self.party, peer, self.incarnation
        )

    # -- receiving ---------------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = self.spawn(self._handle_connection(reader, writer))
        # Closed here and not in the coroutine's ``finally``: a task
        # cancelled before its first step never enters its body.
        task.add_done_callback(lambda _: writer.close())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one inbound connection until it misbehaves or closes.

        Any violation — oversized length, garbage framing, a bad HMAC,
        an undecodable payload — drops the connection on the spot; the
        honest peer's sender task will redial and retransmit.
        """
        try:
            frames = _FrameReader(reader)
            batch = await frames.read_frames()
            peer, incarnation = decode_hello(
                batch.pop(0), self.party, self.channel_keys.get
            )
            inbound = self._inbound.get(peer)
            if inbound is None or inbound.incarnation != incarnation:
                # A restarted peer gets a fresh replay namespace.
                inbound = _InboundChannel(incarnation=incarnation)
                self._inbound[peer] = inbound
            while True:
                for body in batch:
                    if self._inbound.get(peer) is not inbound:
                        # A newer connection from a restarted peer
                        # replaced this channel while we were suspended
                        # in the read; updating the orphaned object
                        # would silently drop its replay bookkeeping.
                        # Drop the old connection.
                        raise ConnectionResetError("superseded inbound channel")
                    if self._closed:
                        return
                    if not self.faults.link_up(peer, self.party):
                        # Partition enforced on the receive side too, so a
                        # cut holds even when only one endpoint has a plan.
                        self.trace.bump("chaos.partitioned")
                        raise ConnectionResetError("chaos: link severed")
                    incarnation, seq, payload_bytes = decode_data(
                        body, self.channel_keys[peer], peer, self.party
                    )
                    if incarnation != inbound.incarnation:
                        raise TransportError("stale incarnation")
                    if seq > inbound.last_seq:
                        inbound.last_seq = seq
                        payload = wire.loads(payload_bytes)
                        self._dispatch(peer, payload)
                    else:
                        self.trace.bump("transport.duplicates")
                if batch:
                    # One cumulative ack for the chunk (sent even when
                    # every frame in it was a duplicate: the sender only
                    # retransmitted because an earlier ack was lost).
                    writer.write(encode_ack(
                        self.channel_keys[peer], self.party, peer,
                        inbound.incarnation, inbound.last_seq,
                    ))
                    await writer.drain()
                batch = await frames.read_frames()
        except (TransportError, wire.WireError):
            self.trace.bump("transport.rejected")
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self.trace.bump("transport.disconnects")

    def _dispatch(self, sender: int, payload: object) -> None:
        if self._closed or self.node is None:
            return
        self.trace.record_delivery(None)
        try:
            self.node.on_message(sender, payload)
        except Exception as exc:  # a handler bug must not kill the link
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

    def spawn(
        self, coro: Coroutine, counter: str = "transport.task_errors"
    ) -> asyncio.Task:
        """Run ``coro`` as a task this network owns: :meth:`close`
        cancels it, and a failure is recorded under ``counter`` (the
        host's own tasks ride along as ``host.task_errors``)."""
        task = asyncio.get_running_loop().create_task(coro)
        task.add_done_callback(lambda done: self._on_task_done(done, counter))
        self._tasks.add(task)
        return task

    def _on_task_done(
        self, task: asyncio.Task, counter: str = "transport.task_errors"
    ) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._record_error(exc, counter)

    def _record_error(self, exc: BaseException, counter: str) -> None:
        """Count every handler/task failure; keep and print (stderr) the
        first ``MAX_KEPT_ERRORS`` of this network — one per process in a
        deployment — so a bug is visible without growing without bound."""
        self.trace.bump(counter)
        if len(self.errors) < MAX_KEPT_ERRORS:
            self.errors.append(exc)
            traceback.print_exception(exc)
