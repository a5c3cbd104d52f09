"""E7 — input causality: the patent-race attack (Section 5.2).

A corrupted server observes pending notary submissions and front-runs
them for a competitor while the adversary starves the victim's traffic.
Measured across both configurations:

* plain atomic broadcast  -> digests leak, the competitor wins;
* secure causal broadcast -> nothing leaks, the inventor wins.

This is the paper's argument for combining atomic broadcast with a
CCA2-secure threshold cryptosystem, executed.
"""

from conftest import emit

from repro.apps import NotaryClient, NotaryService
from repro.core.runtime import ProtocolRuntime
from repro.net.scheduler import Scheduler
from repro.smr import Replica, build_service, service_session
from repro.smr.replica import SubmitEncrypted, SubmitRequest
from repro.smr.state_machine import Request

CORRUPT = 3


class _FrontRunScheduler(Scheduler):
    def __init__(self, inventor_id):
        self.inventor_id = inventor_id
        self.block_inventor = False

    def select(self, pending, rng):
        if not pending:
            return None
        for i, env in enumerate(pending):
            if env.sender == self.inventor_id and env.recipient == CORRUPT:
                return i
        if self.block_inventor:
            fast = [i for i, e in enumerate(pending) if e.sender != self.inventor_id]
            pool = fast if fast else list(range(len(pending)))
        else:
            pool = list(range(len(pending)))
        return pool[rng.randrange(len(pool))]


class _WithholdingRuntime(ProtocolRuntime):
    def __init__(self, *args, spy, inventor_id, **kwargs):
        super().__init__(*args, **kwargs)
        self.spy = spy
        self.inventor_id = inventor_id

    def on_message(self, sender, payload):
        if isinstance(payload, tuple) and len(payload) == 2:
            message = payload[1]
            if isinstance(message, SubmitRequest):
                request = Request.decode(message.request)
                if request is not None and request.operation[0] == "register":
                    digest = request.operation[1]
                    if isinstance(digest, bytes) and digest not in self.spy:
                        self.spy.append(digest)
                    if request.client == self.inventor_id:
                        return
            if isinstance(message, SubmitEncrypted) and sender == self.inventor_id:
                return
        super().on_message(sender, payload)


def _race(confidential: bool):
    dep = build_service(
        4, NotaryService, t=1, causal=confidential, seed=9300 + int(confidential)
    )
    network = dep.network
    spy: list[bytes] = []
    inventor = NotaryClient(dep.new_client(), confidential=confidential)
    competitor = NotaryClient(dep.new_client(), confidential=confidential)
    scheduler = _FrontRunScheduler(inventor.client.client_id)
    network.scheduler = scheduler
    tapped = _WithholdingRuntime(
        CORRUPT,
        network,
        dep.keys.public,
        dep.keys.private[CORRUPT],
        seed=99,
        spy=spy,
        inventor_id=inventor.client.client_id,
    )
    tapped.spawn(service_session(), Replica(NotaryService(), causal=confidential))
    dep.controller.corrupt(network, CORRUPT, tapped)

    network.start()
    nonce = inventor.register(b"the invention")
    stolen = None
    for _ in range(50):
        network.step()
        if spy and stolen is None:
            scheduler.block_inventor = True
            op = ("register", spy[0])
            stolen = (
                competitor.client.submit_confidential(op)
                if confidential
                else competitor.client.submit(op)
            )
            break
    if stolen is not None:
        network.run(
            until=lambda: stolen in competitor.client.completed, max_steps=800_000
        )
        scheduler.block_inventor = False
    network.run(until=lambda: nonce in inventor.client.completed, max_steps=800_000)
    result = inventor.client.completed[nonce].result
    registrant = result[3]
    winner = "inventor" if registrant == inventor.client.client_id else "competitor"
    return winner, len(spy)


def test_front_running_attack(benchmark):
    winner_causal, leaks_causal = benchmark.pedantic(
        lambda: _race(confidential=True), rounds=1, iterations=1
    )
    winner_plain, leaks_plain = _race(confidential=False)
    emit(
        "Input causality (Section 5.2): the patent race",
        [
            f"{'configuration':28} {'digests leaked':>15} {'winner':>12}",
            f"{'plain atomic broadcast':28} {leaks_plain:>15} {winner_plain:>12}",
            f"{'secure causal broadcast':28} {leaks_causal:>15} {winner_causal:>12}",
        ],
    )
    assert winner_plain == "competitor" and leaks_plain >= 1
    assert winner_causal == "inventor" and leaks_causal == 0
