#!/usr/bin/env python
"""The patent race (Section 5.2): why the notary needs *secure causal*
atomic broadcast.

An inventor files a patent digest with the distributed notary.  Server 3
is corrupted and colludes with a competitor; the adversary also controls
the network.  The attack:

1. the network delivers the inventor's submission to the corrupted
   server first, which reads it, leaks the digest, and withholds it;
2. all other copies of the inventor's submission are delayed (the
   adversary may reorder anything);
3. the competitor files the stolen digest; its request is scheduled and
   ordered first;
4. only then does the network release the inventor's copies.

The service is the same in both runs: it orders plain and encrypted
requests alike, and confidentiality is what the client chose.

* Filed in the clear (``submit``), the digest leaks in step 1 and the
  competitor wins the registration.
* Filed encrypted (``submit_confidential``), the submission is a TDH2
  ciphertext until secure causal atomic broadcast has fixed its
  position in the total order: nothing leaks, and CCA2 security means
  even replaying/mauling the ciphertext cannot produce a *related*
  filing in the competitor's name.

Run:  python examples/notary_frontrunning.py
"""

import random

from repro.apps import NotaryClient, NotaryService
from repro.core.runtime import ProtocolRuntime
from repro.net.scheduler import Scheduler
from repro.smr import Replica, build_service, service_session
from repro.smr.replica import SubmitEncrypted, SubmitRequest
from repro.smr.state_machine import Request

CORRUPT = 3


class FrontRunScheduler(Scheduler):
    """The adversary's network strategy for the race."""

    def __init__(self, inventor_id: int) -> None:
        self.inventor_id = inventor_id
        self.block_inventor = False

    def select(self, pending, rng):
        if not pending:
            return None
        # Step 1: the corrupted server always hears the victim first.
        for i, env in enumerate(pending):
            if env.sender == self.inventor_id and env.recipient == CORRUPT:
                return i
        # Step 2: starve every other copy of the victim's traffic.
        if self.block_inventor:
            fast = [i for i, e in enumerate(pending) if e.sender != self.inventor_id]
            pool = fast if fast else list(range(len(pending)))
        else:
            pool = list(range(len(pending)))
        return pool[rng.randrange(len(pool))]


class WithholdingRuntime(ProtocolRuntime):
    """Corrupted server: leaks what it can read and withholds the
    victim's submissions instead of broadcasting them."""

    def __init__(self, *args, spy, inventor_id, **kwargs):
        super().__init__(*args, **kwargs)
        self.spy = spy
        self.inventor_id = inventor_id

    def on_message(self, sender: int, payload: object) -> None:
        if isinstance(payload, tuple) and len(payload) == 2:
            message = payload[1]
            if isinstance(message, SubmitRequest):
                request = Request.decode(message.request)
                if request is not None and request.operation[0] == "register":
                    digest = request.operation[1]
                    if isinstance(digest, bytes):
                        self.spy.append(digest)
                    if request.client == self.inventor_id:
                        return  # withhold the victim's filing
            if isinstance(message, SubmitEncrypted):
                # Ciphertext only: nothing to read.  (CCA2 security is
                # what stops mauling it into a related filing.)
                if sender == self.inventor_id:
                    return  # withholding still possible — but useless
        super().on_message(sender, payload)


def race(confidential: bool) -> tuple[str, int]:
    deployment = build_service(n=4, state_machine_factory=NotaryService, t=1, seed=42)
    network = deployment.network
    spy: list[bytes] = []

    inventor = NotaryClient(deployment.new_client(), confidential=confidential)
    competitor = NotaryClient(deployment.new_client(), confidential=confidential)

    scheduler = FrontRunScheduler(inventor.client.client_id)
    network.scheduler = scheduler

    tapped = WithholdingRuntime(
        CORRUPT,
        network,
        deployment.keys.public,
        deployment.keys.private[CORRUPT],
        seed=99,
        spy=spy,
        inventor_id=inventor.client.client_id,
    )
    tapped.spawn(service_session(), Replica(NotaryService()))
    deployment.controller.corrupt(network, CORRUPT, tapped)

    network.start()
    invention = b"perpetual motion machine, mark II"
    nonce = inventor.register(invention)

    # Run the adversary's playbook.
    stolen_nonce = None
    for _ in range(50):
        network.step()
        if spy and stolen_nonce is None:
            scheduler.block_inventor = True
            stolen_nonce = (
                competitor.client.submit_confidential(("register", spy[0]))
                if confidential
                else competitor.client.submit(("register", spy[0]))
            )
            break
    if stolen_nonce is not None:
        network.run(
            until=lambda: stolen_nonce in competitor.client.completed,
            max_steps=500_000,
        )
        scheduler.block_inventor = False
    network.run(until=lambda: nonce in inventor.client.completed, max_steps=500_000)

    result = inventor.client.completed[nonce].result
    _tag, _seq, _digest, registrant, _first = result
    winner = "inventor" if registrant == inventor.client.client_id else "competitor"
    return winner, len(spy)


def main() -> None:
    winner_plain, leaks_plain = race(confidential=False)
    print(f"plain atomic broadcast : digests leaked={leaks_plain}, "
          f"registration owned by -> {winner_plain}")

    winner_causal, leaks_causal = race(confidential=True)
    print(f"secure causal broadcast: digests leaked={leaks_causal}, "
          f"registration owned by -> {winner_causal}")

    assert winner_plain == "competitor", "the attack should succeed without encryption"
    assert winner_causal == "inventor" and leaks_causal == 0
    print("front-running defeated by secure causal atomic broadcast — OK")


if __name__ == "__main__":
    random.seed(0)
    main()
