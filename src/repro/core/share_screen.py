"""The life of the shares of one statement.

Every protocol that opens something from threshold shares — a coin or
a ciphertext — treats them alike
(docs/PROTOCOLS.md, "Shares"): a share is held *unverified* until the
senders heard from could be enough; only then is the held set checked,
with the scheme's one batched multi-exponentiation; what passes is
valid for good, what fails has its sender banned for this statement;
and the valid set is handed out once, when it is enough on its own.
:class:`ShareScreen` is that policy; a protocol supplies what differs —
which sets are enough, how a batch is verified, and what to do with the
opened value.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from ..crypto.coin import CoinShare
from .protocol import Context

__all__ = ["ShareScreen", "offer_coin_share"]

S = TypeVar("S")


class ShareScreen(Generic[S]):
    """Shares of one statement, by sender: held, then valid or banned."""

    __slots__ = ("valid", "pending", "banned", "opened")

    def __init__(self) -> None:
        self.valid: dict[int, S] = {}
        self.pending: dict[int, S] = {}
        self.banned: set[int] = set()
        self.opened = False

    def offer(self, sender: int, share: S) -> None:
        """Hold ``sender``'s first share, unverified.  Nothing may be
        concluded from it: only :meth:`qualified_shares` gates."""
        if self.opened or sender in self.banned or sender in self.valid:
            return
        self.pending.setdefault(sender, share)

    def qualified_shares(
        self,
        enough: Callable[[set[int]], bool],
        verify: Callable[[dict[int, S]], dict[int, S]],
    ) -> dict[int, S] | None:
        """The verified shares, once, when their senders are ``enough``.

        ``verify`` is handed the held shares by sender — no sooner than
        they could complete an ``enough`` set — and returns those that
        pass; the others' senders are banned.  Returns ``None`` until
        the valid set is enough and after it has been handed out.
        """
        if self.opened:
            return None
        if self.pending:
            if not enough(self.valid.keys() | self.pending.keys()):
                return None
            passed = verify(self.pending)
            self.banned.update(self.pending.keys() - passed.keys())
            self.valid.update(passed)
            self.pending.clear()
        if not enough(set(self.valid)):
            return None
        self.opened = True
        return self.valid


def offer_coin_share(
    ctx: Context, screen: ShareScreen[CoinShare], name: object, sender: int, share: object
) -> dict[int, CoinShare] | None:
    """Take ``sender``'s share of the coin ``name``; the qualified set
    of valid shares if this one completes it."""
    if not isinstance(share, CoinShare) or share.party != sender or share.name != name:
        return None
    screen.offer(sender, share)
    return screen.qualified_shares(
        ctx.public.access_scheme.is_qualified,
        lambda held: ctx.public.coin.verify_shares(name, held.values(), ctx.verified),
    )
