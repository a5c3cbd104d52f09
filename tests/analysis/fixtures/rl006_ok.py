"""RL006 fixture: the same deliver path, properly gated (stays quiet).

Identical flows to ``rl006_bad.py`` but every source -> sink path runs
through a catalogued sanitizer first — the early-return ``verify`` gate
on the submit path and a quorum check on the deliver path.  The seeded
regression test strips the ``verify`` gate from this file's text and
asserts RL006 starts firing.
"""


class Replica:
    def __init__(self, state_machine, keys):
        self.state_machine = state_machine
        self.keys = keys

    def on_message(self, ctx, sender, message):
        self._on_submit(ctx, sender, message)

    def _on_submit(self, ctx, sender, message):
        if not self.keys.verify(message.operation, message.signature):
            return
        result = self.state_machine.apply(message.operation)
        share = self.keys.sign_share(result)
        ctx.send(sender, share)

    def on_deliver(self, ctx, sender, wire, raw_bytes):
        request = wire.loads(raw_bytes)
        if not ctx.quorum.is_quorum(request.supporters):
            return
        self.state_machine.apply(request.operation)


class Opener:
    """Acts only on the set the ShareScreen returns."""

    def __init__(self, state_machine, screen, enough, check_batch):
        self.state_machine = state_machine
        self.screen = screen
        self.enough = enough
        self.check_batch = check_batch

    def on_message(self, ctx, sender, message):
        self.screen.offer(sender, message.share)
        if self.screen.qualified_shares(self.enough, self.check_batch) is None:
            return
        self.state_machine.apply(message.opened)
