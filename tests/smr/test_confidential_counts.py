"""E20's counts, pinned: what a confidential request costs beside a plain one.

n = 4, t = 1 on ``small_group()``, FIFO delivery counted in lock-step
generations (everything pending when a generation starts is delivered
before anything sent during it, so a generation is one message delay).
A lone request and a burst of 8 from one client, each submitted plain
(``submit``) and confidential (``submit_confidential``), on a quiescent
service.  Per case the test pins, summed over the case's requests:

* ``check_ciphertext`` calls (every replica checks a submission when it
  arrives and again when the ciphertext is a-delivered);
* ``ScDecryptionShare`` messages and their wire bytes (one share per
  replica per ciphertext, to every replica);
* decryption-share checks: ``consistent`` (a robust set agreeing in the
  exponent) and ``verify_shares`` (DLEQ proofs, read only when that
  fails);
* agreement rounds, and the commit delay in message steps (until the
  case's last request completes at the client).

A change to the confidential path that adds a check, a share message or
a step moves one of them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.crypto.shared_exponent import SharedExponentPublic
from repro.crypto.threshold_enc import EncryptionPublic
from repro.net import wire
from repro.net.scheduler import FifoScheduler
from repro.smr import KeyValueStore, build_service

N, T = 4, 1
BURST = 8
SEED = 20

# (requests, confidential) -> what the case cost in all.  A confidential
# request: 16 ciphertext checks (each replica at submission and at
# a-delivery, and twice inside its own share and the opening), 16 share
# messages of 228 bytes, one consistency check per replica, no proof,
# and one message step more than a plain one (the shares' exchange).
PINS = {
    (1, False): dict(check_ciphertext=0, share_messages=0, share_bytes=0,
                     consistent=0, verify_shares=0, rounds=1, steps=10),
    (1, True): dict(check_ciphertext=16, share_messages=16, share_bytes=3_652,
                    consistent=4, verify_shares=0, rounds=1, steps=11),
    (BURST, False): dict(check_ciphertext=0, share_messages=0, share_bytes=0,
                         consistent=0, verify_shares=0, rounds=1, steps=10),
    (BURST, True): dict(check_ciphertext=16 * BURST, share_messages=16 * BURST,
                        share_bytes=29_216, consistent=4 * BURST,
                        verify_shares=0, rounds=1, steps=11),
}


class LockStep(FifoScheduler):
    """Oldest first, in generations."""

    def __init__(self) -> None:
        self.generation = 0
        self._boundary = 0  # highest seq of the current generation

    def select(self, pending, rng):
        if not pending:
            return None
        if pending[0].seq > self._boundary:
            self.generation += 1
            self._boundary = pending[-1].seq
        return 0


def _measure(monkeypatch, requests: int, confidential: bool) -> dict[str, int]:
    counts: Counter[str] = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(EncryptionPublic, "check_ciphertext",
                        counted("check_ciphertext", EncryptionPublic.check_ciphertext))
    monkeypatch.setattr(EncryptionPublic, "consistent",
                        counted("consistent", SharedExponentPublic.consistent))
    monkeypatch.setattr(EncryptionPublic, "verify_shares",
                        counted("verify_shares", EncryptionPublic.verify_shares))
    clock = LockStep()
    service = build_service(N, KeyValueStore, t=T, seed=SEED, scheduler=clock)
    network = service.network
    send = network.send

    def recording(sender, recipient, payload):
        if type(payload[1]).__name__ == "ScDecryptionShare":
            counts["share_messages"] += 1
            counts["share_bytes"] += len(wire.dumps(payload))
        send(sender, recipient, payload)

    network.send = recording
    client = service.new_client()
    network.start()
    network.run()
    counts.clear()
    rounds = service.replicas[0].abc.rounds_delivered
    submitted = clock.generation
    submit = client.submit_confidential if confidential else client.submit
    nonces = [submit(("set", f"key-{k}", k)) for k in range(requests)]
    service.run_until_complete(client, nonces)
    counts["steps"] = clock.generation - submitted
    network.run()  # stragglers belong to this case
    counts["rounds"] = service.replicas[0].abc.rounds_delivered - rounds
    for replica in service.replicas.values():
        assert replica.state_machine.data == {f"key-{k}": k for k in range(requests)}
    return {name: counts[name] for name in
            ("check_ciphertext", "share_messages", "share_bytes", "consistent",
             "verify_shares", "rounds", "steps")}


@pytest.mark.parametrize("confidential", [False, True], ids=["plain", "confidential"])
@pytest.mark.parametrize("requests", [1, BURST], ids=["lone", "burst"])
def test_a_case_costs_exactly_this_much(monkeypatch, requests, confidential):
    assert _measure(monkeypatch, requests, confidential) == PINS[requests, confidential]
