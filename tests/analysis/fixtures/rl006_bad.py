"""RL006 fixture: unsanitized network input reaching protected sinks.

A miniature replica (linted with relpath ``smr/rl006_bad.py``): the
``on_message`` parameter is Byzantine input by definition, and the
``wire.loads`` result on the deliver path is a taint source; neither
flow passes a verify/combine/quorum gate before ``apply`` /
``sign_share``.
"""


class Replica:
    def __init__(self, state_machine, keys):
        self.state_machine = state_machine
        self.keys = keys

    def on_message(self, ctx, sender, message):
        self._on_submit(ctx, sender, message)

    def _on_submit(self, ctx, sender, message):
        result = self.state_machine.apply(message.operation)
        share = self.keys.sign_share(result)
        ctx.send(sender, share)

    def on_deliver(self, ctx, sender, wire, raw_bytes):
        request = wire.loads(raw_bytes)
        self.state_machine.apply(request.operation)


class Opener:
    """Counts on a share it has only *offered* to a ShareScreen."""

    def __init__(self, state_machine, screen):
        self.state_machine = state_machine
        self.screen = screen

    def on_message(self, ctx, sender, message):
        self.screen.offer(sender, message.share)  # held unverified: gates nothing
        self.state_machine.apply(message.opened)
