"""RL002 fixture: a discarded consistency verdict (linted as if in core/)."""


def open_by_consistency(ctx, screen, public, verify, shares):
    public.consistent(shares)  # line 5: the robust set's verdict discarded
    open_shares(ctx, screen, public.consistent, verify)  # line 6: the opened set discarded
    return shares
