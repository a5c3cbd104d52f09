"""The message steps of one commit, pinned.

A lone operation — nothing else in flight — is driven under a lock-step
clock: everything pending when a generation starts is delivered before
anything sent during it, so generations count *message delays* and the
step at which a kind of message is first sent says where on the path it
sits.  A step added to the path fails here instead of showing up as
latency noise.

The path: the client submits (step 0), each replica proposes its batch
(1), consistent-broadcasts its candidate list (2: send, 3: echo
shares, 4: certificate), the permutation coin is opened (5), the first
candidate's vote runs BVAL, AUX, CONF (6, 7, 8) and decides 1 on the
constant first coin; every replica holds the candidate's delivery, so
it decides, executes and replies in that same step (9) and the client
has t + 1 replies one delay later: 10.  Before the vote was biased and
holders decided at the vote's decision this read 12 + 4 per lost coin
flip (12, 16, 20, ... by the luck of the seed).
"""

import pytest

from repro.net.scheduler import Scheduler
from repro.smr import KeyValueStore, build_service

COMMIT_STEPS = 10
FIRST_SENT_AT = {
    "SubmitRequest": 0,
    "AbcProposal": 1,
    "CbcSend": 2,
    "CbcEchoSignature": 3,
    "CbcFinal": 4,
    "MvbaPermShare": 5,
    "AbaBval": 6,
    "AbaAux": 7,
    "AbaConf": 8,
    "MvbaValue": 9,
    "AbaDone": 9,
    "Reply": 9,
}


class LockStep(Scheduler):
    """Oldest first, in generations; ``sent`` maps each message kind to
    the generation during which it was first sent."""

    def __init__(self) -> None:
        self.generation = 0
        self.sent: dict[str, int] = {}
        self._boundary = 0  # highest seq of the current generation

    def select(self, pending, rng):
        if not pending:
            return None
        if pending[0].seq > self._boundary:
            # Everything older is delivered: what is pending was sent
            # during the generation that just ended.
            for envelope in pending:
                self.sent.setdefault(type(envelope.payload[1]).__name__, self.generation)
            self.generation += 1
            self._boundary = pending[-1].seq
        return 0


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_a_lone_commit_is_ten_message_steps(n, t, seed):
    clock = LockStep()
    service = build_service(n, KeyValueStore, t=t, seed=seed, scheduler=clock)
    client = service.new_client()
    service.network.start()
    for index in range(4):
        service.network.run()  # quiescent: the operation rides alone
        clock.sent.clear()
        submitted = clock.generation
        nonce = client.submit(("set", "key", index))
        service.run_until_complete(client, [nonce])
        assert clock.generation - submitted == COMMIT_STEPS
        # No AbaCoinShare among the kinds: the vote opened no coin.
        assert {kind: at - submitted for kind, at in clock.sent.items()} == FIRST_SENT_AT
    assert service.network.trace.counters["admission.dropped"] == 0
