"""A closed loop through the service: rounds, delays and liveness.

A closed loop keeps ``window`` requests in flight and submits the next
one as soon as one completes, as the benchmark's load generator does.
Requests then come back in waves: the ones a round delivered return
together.  A replica tries to open a round when the turn in which it
read the submissions ends (docs/PROTOCOLS.md, "Opening a round"); what
the gate holds then rides the round that the next round event opens.
Under the lock-step clock of ``test_commit_path`` that makes every wave
one round.
"""

import collections

import pytest

from repro.core.atomic_broadcast import AbcConfig
from repro.net.scheduler import RandomScheduler, ReorderScheduler
from repro.smr import KeyValueStore, build_service

from .test_commit_path import LockStep


def run_closed_loop(service, client, operations, window, clock=lambda: 0):
    """Keep ``window`` of ``operations`` in flight until all completed;
    each commit's delay in ``clock`` ticks, in completion order."""
    waiting = list(reversed(operations))
    in_flight: dict[int, int] = {}
    delays = []
    while waiting or in_flight:
        while waiting and len(in_flight) < window:
            in_flight[client.submit(waiting.pop())] = clock()
        service.network.run(until=lambda: any(n in client.completed for n in in_flight))
        for nonce in [n for n in in_flight if n in client.completed]:
            delays.append(clock() - in_flight.pop(nonce))
    return delays


def round_sizes(abc):
    """How many payloads each delivered round carried, in round order."""
    sizes = collections.Counter(abc.delivered.values())
    return [sizes[r] for r in sorted(sizes)]


def _sets(count):
    return [("set", f"key-{i % 16}", i) for i in range(count)]


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_closed_loop_waves_ride_one_round_each(n, t):
    """A window of 16 over 96 sets: the client's first 16 are one turn
    of each replica's and ride round 1 together; each round's replies
    return in one lock-step generation, so the wave they bring back is
    again one turn and one round, and every commit takes the lone
    commit's 10 message delays.  When the first submission of a turn
    opened a round by itself, the rounds carried [1, 15] * 6 and the
    median commit took 16 delays (the returning wave waited for the
    round in flight); before that wait, [1, 15, 1, 1, 14, 1, 1, 1, 13,
    ...] (26 rounds, at both n) with a median of 11."""
    clock = LockStep()
    service = build_service(
        n, KeyValueStore, t=t, scheduler=clock, abc_config=AbcConfig(pipeline_depth=4)
    )
    client = service.new_client()
    service.network.start()
    delays = run_closed_loop(service, client, _sets(96), window=16, clock=lambda: clock.generation)
    assert round_sizes(service.replicas[0].abc) == [16] * 6
    assert len(delays) == 96
    assert sorted(delays)[len(delays) // 2] == 10


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_a_burst_from_one_client_rides_one_round(n, t):
    """Twenty sets submitted at once are one turn of each replica's:
    they ride round 1 together and commit in the lone commit's 10
    message delays.  When a submission opened a round at once, the
    first rode round 1 alone and the other 19 round 2, a delay later."""
    clock = LockStep()
    service = build_service(
        n, KeyValueStore, t=t, scheduler=clock, abc_config=AbcConfig(pipeline_depth=4)
    )
    client = service.new_client()
    service.network.start()
    submitted = clock.generation
    nonces = [client.submit(operation) for operation in _sets(20)]
    service.run_until_complete(client, nonces)
    assert clock.generation - submitted == 10
    service.network.run()
    for replica in service.replicas.values():
        assert round_sizes(replica.abc) == [20]


@pytest.mark.parametrize("crashed", [False, True], ids=["all-up", "one-crashed"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_every_request_of_a_closed_loop_commits(scheduler, n, t, seed, crashed):
    """A queued request waits for its turn to end, then for a round in
    flight; the wait ends when that round is delivered, on any schedule
    and with a replica down."""
    service = build_service(
        n, KeyValueStore, t=t, seed=seed, scheduler=scheduler(),
        abc_config=AbcConfig(pipeline_depth=4),
    )
    if crashed:
        service.network.crash(n - 1)
    client = service.new_client()
    service.network.start()
    delays = run_closed_loop(service, client, _sets(60), window=12)
    assert len(delays) == len(client.completed) == 60
