"""ShareScreen: the one policy under every protocol that opens a value
from threshold shares — hold unverified, batch-verify once the set
could be enough, ban culprits for that statement, hand the set out once.

Table-driven over the three kinds of statement the stack screens: a
coin, a TDH2 ciphertext and a ``cert_quorum`` statement.
"""

import random
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from helpers import ctx_for, make_network

from repro.core.share_screen import ShareScreen, offer_coin_share
from repro.crypto import schnorr, zkp
from repro.crypto.schnorr import VerifiedMemo


@dataclass
class Case:
    """One statement and everything that differs between its schemes."""

    enough: Callable[[set], bool]
    needed: int  # senders in the smallest enough set (n = 4, t = 1)
    share: Callable  # (party, memo) -> that party's valid share
    forged: Callable  # party -> a share that must not verify
    verify: Callable  # (held by sender, memo) -> the valid ones
    opens: Callable  # valid shares -> whether they open the right value
    other: Callable  # () -> the same case for a different statement


def _coin(keys, name=("screen", "coin"), seed=1):
    public, rng = keys.public, random.Random(seed)

    def forged(party):
        honest = keys.private[party].coin.share_for(name, rng)
        return replace(honest, values={slot: public.group.g for slot in honest.values})

    expected = public.coin.combine(
        name, {p: keys.private[p].coin.share_for(name, rng) for p in (2, 3)}
    )
    return Case(
        enough=public.access_scheme.is_qualified,
        needed=2,
        share=lambda party, memo=None: keys.private[party].coin.share_for(name, rng, memo),
        forged=forged,
        verify=lambda held, memo=None: public.coin.verify_shares(name, held.values(), memo),
        opens=lambda shares: public.coin.combine(name, shares) == expected,
        other=lambda: _coin(keys, ("screen", "another coin"), seed + 1),
    )


def _ciphertext(keys, plaintext=b"sealed bid", seed=2):
    public, rng = keys.public, random.Random(seed)
    ct = public.encryption.encrypt(plaintext, b"label", rng)

    def forged(party):
        honest = keys.private[party].decryption.decryption_share(ct, rng)
        return replace(honest, values={slot: public.group.g for slot in honest.values})

    return Case(
        enough=public.access_scheme.is_qualified,
        needed=2,
        share=lambda party, memo=None: keys.private[party].decryption.decryption_share(
            ct, rng, memo
        ),
        forged=forged,
        verify=lambda held, memo=None: public.encryption.verify_shares(
            ct, held.values(), memo
        ),
        opens=lambda shares: public.encryption.combine(ct, shares) == plaintext,
        other=lambda: _ciphertext(keys, b"another bid", seed + 1),
    )


def _quorum_cert(keys, statement=("cbc-commit", ("cbc", 0), b"digest"), seed=3):
    public, rng = keys.public, random.Random(seed)
    return Case(
        enough=public.quorum.is_quorum,
        needed=3,
        share=lambda party, memo=None: keys.private[party].cert_quorum.sign_share(
            statement, rng, memo
        ),
        forged=lambda party: keys.private[party].cert_quorum.sign_share(
            ("not", statement), rng
        ),
        verify=lambda held, memo=None: public.cert_quorum.verify_shares(
            statement, held, memo
        ),
        opens=lambda shares: public.cert_quorum.verify(
            statement, public.cert_quorum.combine(statement, shares)
        ),
        other=lambda: _quorum_cert(keys, ("cbc-commit", ("cbc", 1), b"other"), seed + 1),
    )


@pytest.fixture(params=[_coin, _ciphertext, _quorum_cert], ids=lambda f: f.__name__[1:])
def case(request, keys_4_1) -> Case:
    return request.param(keys_4_1)


class _Counting:
    """The case's verifier, recording every batch it is handed."""

    def __init__(self, case, memo=None):
        self.case, self.memo, self.batches = case, memo, []

    def __call__(self, held):
        self.batches.append(sorted(held))
        return self.case.verify(held, self.memo)


def test_no_verification_before_the_set_could_be_enough(case):
    screen, verify = ShareScreen(), _Counting(case)
    for party in range(case.needed - 1):
        screen.offer(party, case.share(party))
        assert screen.qualified_shares(case.enough, verify) is None
    assert verify.batches == [] and not screen.valid
    screen.offer(3, case.share(3))
    shares = screen.qualified_shares(case.enough, verify)
    # One batch over exactly the held shares, and the value opens.
    assert verify.batches == [sorted([*range(case.needed - 1), 3])]
    assert sorted(shares) == verify.batches[0] and case.opens(shares)


def test_forged_share_bans_its_sender_for_that_statement_only(case):
    screen, verify = ShareScreen(), _Counting(case)
    screen.offer(0, case.forged(0))
    for party in range(1, case.needed):
        screen.offer(party, case.share(party))
    # Enough senders, but one lied: checked once, culprit pinpointed,
    # the honest shares kept — and not yet enough of them.
    assert screen.qualified_shares(case.enough, verify) is None
    assert screen.banned == {0} and sorted(screen.valid) == list(range(1, case.needed))
    assert not screen.pending and len(verify.batches) == 1
    # The culprit's later (even valid) share for this statement is ignored.
    screen.offer(0, case.share(0))
    assert screen.qualified_shares(case.enough, verify) is None
    assert not screen.pending and len(verify.batches) == 1
    # The value opens as soon as enough honest senders remain; only the
    # newcomer is verified, the kept shares are not checked again.
    screen.offer(3, case.share(3))
    shares = screen.qualified_shares(case.enough, verify)
    assert verify.batches[1:] == [[3]]
    assert sorted(shares) == [*range(1, case.needed), 3] and case.opens(shares)
    # Another statement's screen knows nothing of the ban.
    other, elsewhere = case.other(), ShareScreen()
    for party in range(other.needed):
        elsewhere.offer(party, other.share(party))
    assert other.opens(elsewhere.qualified_shares(other.enough, other.verify))


def test_duplicate_and_late_senders_are_ignored(case):
    screen, verify = ShareScreen(), _Counting(case)
    first = case.share(0)
    screen.offer(0, first)
    screen.offer(0, case.forged(0))  # a second share of a held sender
    assert screen.pending == {0: first}
    for party in range(1, case.needed):
        screen.offer(party, case.share(party))
    shares = screen.qualified_shares(case.enough, verify)
    assert case.opens(shares) and screen.banned == set()
    screen.offer(1, case.forged(1))  # a second share of a valid sender
    screen.offer(3, case.share(3))  # late: the value is open
    assert not screen.pending and sorted(screen.valid) == list(range(case.needed))
    # Handed out once; nothing more is verified.
    assert screen.qualified_shares(case.enough, verify) is None
    assert len(verify.batches) == 1


def test_shares_the_memo_vouches_for_reach_no_arithmetic(case, monkeypatch):
    memo = VerifiedMemo()
    screen = ShareScreen()
    for party in range(case.needed):
        screen.offer(party, case.share(party, memo))  # the maker seeds the memo

    def arithmetic(*args, **kwargs):
        raise AssertionError("a memo hit reached group arithmetic")

    monkeypatch.setattr(zkp, "verify_product_equations", arithmetic)
    monkeypatch.setattr(schnorr, "verify_product_equations", arithmetic)
    verify = _Counting(case, memo)
    shares = screen.qualified_shares(case.enough, verify)
    monkeypatch.undo()
    assert len(verify.batches) == 1 and case.opens(shares)


def test_coin_shares_are_screened_for_shape_before_they_are_held(keys_4_1):
    _, runtimes = make_network(keys_4_1)
    ctx = ctx_for(runtimes[0], ("aba", "shape"))
    name, rng = ("screen", "shape"), random.Random(4)
    screen = ShareScreen()
    theirs = keys_4_1.private[1].coin.share_for(name, rng)
    misnamed = keys_4_1.private[1].coin.share_for(("screen", "elsewhere"), rng)
    for sender, share in [(2, theirs), (1, misnamed), (1, "not a share")]:
        assert offer_coin_share(ctx, screen, name, sender, share) is None
    assert not screen.pending
    assert offer_coin_share(ctx, screen, name, 1, theirs) is None
    mine = keys_4_1.private[0].coin.share_for(name, rng, ctx.verified)
    shares = offer_coin_share(ctx, screen, name, 0, mine)
    assert sorted(shares) == [0, 1]
