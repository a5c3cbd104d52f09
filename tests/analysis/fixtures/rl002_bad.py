"""RL002 fixture: discarded verification results (linted as if in core/)."""


def deliver(key, statement, message):
    key.verify(statement, message.signature)  # line 5: result discarded
    return message.payload


def collect(scheme, statement, shares):
    scheme.combine(statement, shares)  # line 10: result discarded
    scheme.verify_share(statement, shares[0])  # line 11: result discarded


def screen(scheme, ct, name, group, items, shares):
    scheme.verify_shares(ct, shares)  # line 15: batch result discarded
    verify_dleq_batch(group, items)  # line 16: batch verdict discarded
    scheme.verify_batch(group, items)  # line 17: batch verdict discarded


def release(holder, public, name, rng, memo, pending, group, candidates):
    own = holder.share_for(name, rng, memo)  # seeds the memo with its own proofs
    public.verify_shares(name, [own, *pending], memo)  # line 22: a seeded memo gates nothing
    verify_dleq_shares(group, candidates, memo)  # line 23: valid set discarded
    return pending


def open_coin(ctx, screen, enough, verify, name, sender, share):
    screen.offer(sender, share)  # holds the share unverified: nothing to discard
    screen.qualified_shares(enough, verify)  # line 29: the screen's answer discarded
    offer_coin_share(ctx, screen, name, sender, share)  # line 30: likewise
    return screen.pending
