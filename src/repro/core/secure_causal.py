"""Secure causal atomic broadcast (Section 3, after Reiter-Birman [33]).

Atomic broadcast plus *input causality*: a request its client encrypted
under the service's TDH2 key stays confidential until its position in
the total order is fixed.  The service orders plain requests and
ciphertexts through its one :class:`AtomicBroadcast`; this module is the
*stage* between a-delivery and execution.  It holds a delivered
ciphertext's place until the servers' decryption shares open it, and
passes every entry and round end on in a-delivery order.

A round's shares leave when it is the next to deliver.  A round that
holds a *barrier* (a plain request that, executed now, ends the session:
an accepted epoch change) delivers only once the stage is empty and
every ciphertext ahead of its first barrier has opened, so that barrier
executes inside the delivery and what :meth:`AtomicBroadcast.close`
requeues leaves still encrypted (docs/PROTOCOLS.md, "Secure causal
atomic broadcast").

CCA2 security of the threshold cryptosystem is essential (Section 5.2):
a corrupted server that observes a pending ciphertext can neither
decrypt it alone nor maul it into a *related* request scheduled first.
Experiment E7's front-running attack on the notary fails here and
succeeds against a request its client sent in the clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from ..codec import register
from ..crypto.threshold_enc import Ciphertext, DecryptionShare
from .atomic_broadcast import AtomicBroadcast
from .protocol import Context
from .share_screen import ShareScreen, open_shares

__all__ = ["ScDecryptionShare", "SecureCausalBroadcast"]


@register
@dataclass(frozen=True)
class ScDecryptionShare:
    """A decryption share for the a-delivered payload with ``digest``."""

    digest: bytes
    share: DecryptionShare


# Shares one sender may have waiting here for ciphertexts this party has
# not a-delivered yet (of the order of the runtime's per-session buffer:
# an honest sender is ahead by a few requests, a flood beyond is dropped).
_EARLY_SHARE_LIMIT = 4096

_END = object()  # a round's end, in the stage's queue


def _ciphertext(payload: object) -> Ciphertext | None:
    """The ciphertext an ordered ``("ct", ciphertext)`` payload carries."""
    shaped = type(payload) is tuple and len(payload) == 2 and payload[0] == "ct"
    return payload[1] if shaped and isinstance(payload[1], Ciphertext) else None


class SecureCausalBroadcast:
    """The stage on ``abc``'s delivery path (its owner routes the
    broadcast's ``on_deliver``, ``on_round_end`` and ``hold`` here).  It
    calls ``on_deliver(ctx, payload, round, plaintext)``, ``plaintext``
    None unless ``payload`` is a valid ciphertext, and ``on_round_end(ctx)``
    after a round's last entry; ``barrier(payload)`` names the plain
    payloads that, executed now, end the session — a verdict on ordered
    state that no entry changes short of the one that ends it."""

    def __init__(
        self,
        abc: AtomicBroadcast,
        on_deliver: Callable[[Context, Hashable, int, bytes | None], None],
        on_round_end: Callable[[Context], None],
        barrier: Callable[[Hashable], bool],
    ) -> None:
        self.abc = abc
        self.on_deliver = on_deliver
        self.on_round_end = on_round_end
        self.barrier = barrier
        # Delivered entries not yet passed on: (payload, round, digest of
        # a ciphertext or None); a round's end is (_END, round, None).
        self.waiting: list[tuple[Hashable, int, bytes | None]] = []
        # The opened ciphertexts, for good: digest -> (payload, plaintext).
        self.opened: dict[bytes, tuple[Hashable, bytes]] = {}
        # One screen per a-delivered ciphertext still to be opened —
        # never per digest a peer merely names: a share that arrives
        # before its ciphertext waits in its sender's bounded ``early``.
        self.opening: dict[bytes, tuple[Hashable, ShareScreen[DecryptionShare]]] = {}
        self.early: dict[int, dict[bytes, DecryptionShare]] = {}
        # The round ``hold`` was last shown and the index of its first
        # barrier: a held round is shown again at every share.
        self._shown: tuple[tuple, int | None] = ((), None)

    def submit(self, ctx: Context, ciphertext: Ciphertext) -> None:
        """s-broadcast: hand an encrypted request to the broadcast."""
        if ctx.public.encryption.check_ciphertext(ciphertext):
            self.abc.submit(ctx, ("ct", ciphertext))

    # -- the broadcast's hooks ---------------------------------------------------

    def hold(self, ctx: Context, payloads: Iterable[Hashable]) -> bool:
        """Whether the round about to deliver ``payloads`` waits: it holds
        a barrier, and the stage is not empty or a ciphertext ahead of the
        first barrier has not opened.  Those ciphertexts' shares leave
        now; none behind it, which the barrier may requeue."""
        payloads = tuple(payloads)
        if not self.waiting and not any(map(_ciphertext, payloads)):
            return False  # the plain path
        if self._shown[0] != payloads:
            first = next((i for i, p in enumerate(payloads) if self.barrier(p)), None)
            self._shown = (payloads, first)
        first = self._shown[1]
        if first is None:
            return False
        ahead = [self._open(ctx, p) for p in payloads[:first]]
        return bool(self.waiting) or any(d in self.opening for d in ahead)

    def deliver(self, ctx: Context, payload: Hashable, round_number: int) -> None:
        self.waiting.append((payload, round_number, self._open(ctx, payload)))
        self._drain(ctx)

    def round_end(self, ctx: Context, round_number: int) -> None:
        self.deliver(ctx, _END, round_number)

    # -- opening ---------------------------------------------------------------

    def _open(self, ctx: Context, payload: Hashable) -> bytes | None:
        """A valid ciphertext ``payload``'s digest (our share sent once); else None."""
        ct = _ciphertext(payload)
        digest = None if ct is None else self.abc.digest(payload)
        if digest is None or digest in self.opening or digest in self.opened:
            return digest
        if not ctx.public.encryption.check_ciphertext(ct):
            return None
        screen: ShareScreen[DecryptionShare] = ShareScreen()
        self.opening[digest] = (payload, screen)
        for sender, held in sorted(self.early.items()):
            if digest in held:
                screen.offer(sender, held.pop(digest))
        share = ctx.keys.decryption.decryption_share(ct, ctx.rng, ctx.verified)
        if share is not None:
            ctx.broadcast(ScDecryptionShare(digest, share))
        return digest

    def on_share(self, ctx: Context, sender: int, message: ScDecryptionShare) -> None:
        share, digest = message.share, message.digest
        if share.party != sender or digest in self.opened:
            return
        if digest not in self.opening:
            held = self.early.setdefault(sender, {})
            if len(held) < _EARLY_SHARE_LIMIT:
                held.setdefault(digest, share)
            return
        self.opening[digest][1].offer(sender, share)
        self._try_open(ctx, digest)
        self._drain(ctx)
        self.abc.deliver(ctx)  # a round ``hold`` held may deliver now

    def _try_open(self, ctx: Context, digest: bytes) -> None:
        payload, screen = self.opening[digest]
        ct, encryption = payload[1], ctx.public.encryption
        shares = open_shares(
            ctx, screen, encryption.consistent,
            lambda held: encryption.verify_shares(ct, held.values(), ctx.verified),
        )
        if shares is not None:
            del self.opening[digest]
            self.opened[digest] = (payload, encryption.combine(ct, shares))

    def held(self) -> list[tuple[Hashable, int]]:
        """The a-delivered entries not passed on yet, as ``(payload, round)``."""
        return [(payload, rnd) for payload, rnd, _digest in self.waiting if payload is not _END]

    def record(self, payload: Hashable, plaintext: bytes) -> None:
        """A ciphertext opened in an agreed log: nothing waits for it."""
        digest = self.abc.digest(payload)
        self.opened[digest] = (payload, plaintext)
        self.opening.pop(digest, None)
        for _sender, held in sorted(self.early.items()):
            held.pop(digest, None)

    def learn(self, ctx: Context, entries: tuple) -> None:
        """Open what the stage holds from an agreed log; pass on what that frees."""
        plaintexts = {entry[0]: entry[2] for entry in entries if len(entry) == 3}
        for payload, _screen in list(self.opening.values()):
            if payload in plaintexts:
                self.record(payload, plaintexts[payload])
        self._drain(ctx)
        self.abc.deliver(ctx)

    def _drain(self, ctx: Context) -> None:
        """Pass entries on in a-delivery order, up to a ciphertext still to open."""
        while self.waiting:
            payload, round_number, digest = self.waiting[0]
            if digest in self.opening:
                self._try_open(ctx, digest)
                if digest in self.opening:
                    return
            self.waiting.pop(0)
            if payload is _END:
                self.on_round_end(ctx)
            else:
                opened = None if digest is None else self.opened[digest][1]
                self.on_deliver(ctx, payload, round_number, opened)
