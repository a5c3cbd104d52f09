"""RL002 clean fixture: every verification gates progress."""


def deliver(key, statement, message):
    if not key.verify(statement, message.signature):
        return None
    return message.payload


def collect(scheme, statement, shares):
    certificate = scheme.combine(statement, shares)
    valid = [s for s in shares if scheme.verify_share(statement, s)]
    return certificate, valid


def screen(scheme, ct, group, items, shares):
    valid = scheme.verify_shares(ct, shares)
    if not verify_dleq_batch(group, items):
        return None
    return valid


def release(holder, public, name, rng, memo, pending, group, candidates):
    # Own share admitted through a seeded memo: still only via the result.
    own = holder.share_for(name, rng, memo)
    valid = public.verify_shares(name, [own, *pending], memo)
    return valid, verify_dleq_shares(group, candidates, memo)


def open_coin(ctx, screen, enough, verify, name, sender, share):
    screen.offer(sender, share)
    if screen.qualified_shares(enough, verify) is None:
        return offer_coin_share(ctx, screen, name, sender, share)
    return screen.valid
