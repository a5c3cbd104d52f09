"""The life of the shares of one statement.

Every protocol that opens something from threshold shares — a coin or
a ciphertext — treats them alike
(docs/PROTOCOLS.md, "Shares"): a share is held *unverified* until the
senders heard from could be enough; only then is the held set checked;
what passes is valid for good, what fails has its sender banned for
this statement; and the valid set is handed out once, when it is enough
on its own.  Shares of a shared exponent are checked by consistency:
once their senders are *robust* (the access scheme qualifies them less
any corruptible set), one check in the exponent that they lie on one
sharing stands in for their proofs, which are read only when it fails
or at a quorum that is not robust.  :class:`ShareScreen` is that
policy; a protocol supplies what differs — which sets are enough, how
shares are checked, and what to do with the opened value.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from ..crypto.coin import CoinShare
from .protocol import Context

__all__ = ["ShareScreen", "offer_coin_share", "open_coin", "open_shares"]

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
        consistent: Callable[[dict[int, S]], bool | None] | None = None,
        due: Callable[[set[int]], bool] | None = None,
    ) -> dict[int, S] | None:
        """The verified shares, once, when their senders are ``enough``.

        ``consistent``, if given, is handed every held share by sender
        (valid ones too) at each offer: ``None`` while their senders are
        not robust, else whether they lie on one sharing — if they do,
        all are valid.  ``verify`` (the proofs) is handed the unchecked
        shares when that check fails, or once their senders are ``due``
        (``enough`` unless given), and returns those that pass; the
        others' senders are banned.  Returns ``None`` until the valid set
        is enough and after it has been handed out.
        """
        if self.opened:
            return None
        if self.pending:
            held = {**self.valid, **self.pending}
            agree = consistent(held) if consistent is not None else None
            if agree:
                self.valid = held
            elif agree is not None or (due or enough)(set(held)):
                passed = verify(self.pending)
                self.banned.update(self.pending.keys() - passed.keys())
                self.valid.update(passed)
            else:
                return None
            self.pending = {}
        if not enough(set(self.valid)):
            return None
        self.opened = True
        return self.valid


def open_shares(
    ctx: Context,
    screen: ShareScreen[S],
    consistent: Callable[[dict[int, S]], bool],
    verify: Callable[[dict[int, S]], dict[int, S]],
    settled: bool = False,
) -> dict[int, S] | None:
    """The qualified set of valid shares of a shared exponent, once:
    checked by ``consistent`` when their senders are a robust set, by
    ``verify`` (the proofs) when that fails or at a quorum that is not
    robust — or, once the statement is ``settled`` elsewhere (a peer
    acted on the opened value, so shares still awaited may never come),
    at any qualified set.  Counts the sets opened by consistency and the
    proof checks on the trace."""

    def checked(held: dict[int, S]) -> bool | None:
        if not ctx.public.is_robust(held):
            return None
        agree = consistent(held)
        if agree:
            ctx.trace.bump("shares.opened_by_consistency")
        return agree

    def proved(held: dict[int, S]) -> dict[int, S]:
        ctx.trace.bump("shares.proof_fallback")
        return verify(held)

    qualified = ctx.public.access_scheme.is_qualified
    return screen.qualified_shares(
        qualified, proved, checked, qualified if settled else ctx.quorum.is_quorum
    )


def open_coin(
    ctx: Context, screen: ShareScreen[CoinShare], name: object, settled: bool = False
) -> dict[int, CoinShare] | None:
    """:func:`open_shares` for the coin ``name``."""
    coin = ctx.public.coin
    return open_shares(
        ctx, screen, coin.consistent,
        lambda held: coin.verify_shares(name, held.values(), ctx.verified),
        settled,
    )


def offer_coin_share(
    ctx: Context,
    screen: ShareScreen[CoinShare],
    name: object,
    sender: int,
    share: object,
    settled: bool = False,
) -> dict[int, CoinShare] | None:
    """Take ``sender``'s share of the coin ``name``; the qualified set
    of valid shares if this one completes it."""
    if not isinstance(share, CoinShare) or share.party != sender or share.name != name:
        return None
    screen.offer(sender, share)
    return open_coin(ctx, screen, name, settled)
