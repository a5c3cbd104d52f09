"""A closed loop through the service: rounds, delays and liveness.

A closed loop keeps ``window`` requests in flight and submits the next
one as soon as one completes, as the benchmark's load generator does.
Requests then come back in waves: the ones a round delivered return
together.  A submission opens a round only when the replica has none
in flight (docs/PROTOCOLS.md, "Opening a round"); otherwise it rides the
round that the next round event opens.  Under the lock-step clock of
``test_commit_path`` that makes every wave one round.
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
    sizes = collections.Counter(r for _payload, r in abc.delivered_log)
    return [sizes[r] for r in sorted(sizes)]


def _sets(count):
    return [("set", f"key-{i % 16}", i) for i in range(count)]


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_closed_loop_waves_ride_one_round_each(n, t):
    """A window of 16 over 96 sets: the first request rides round 1
    alone and the other 15 ride round 2.  From then on each wave returns
    while the round before it is in flight and rides one round.  When a
    submission could open a round whenever the gate was open, the rounds
    carried [1, 15, 1, 1, 14, 1, 1, 1, 13, ...] (26 rounds, at both n):
    a lone request's round completed alone, its request came back alone,
    and each returning wave's first request opened a round by itself.
    Waiting costs the returning wave latency: the median commit takes 16
    message delays here, against 11 when requests opened lone rounds."""
    clock = LockStep()
    service = build_service(
        n, KeyValueStore, t=t, scheduler=clock, abc_config=AbcConfig(pipeline_depth=4)
    )
    client = service.new_client()
    service.network.start()
    delays = run_closed_loop(service, client, _sets(96), window=16, clock=lambda: clock.generation)
    assert round_sizes(service.replicas[0].abc) == [1, 15] * 6
    assert len(delays) == 96
    assert sorted(delays)[len(delays) // 2] == 16


@pytest.mark.parametrize("crashed", [False, True], ids=["all-up", "one-crashed"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
@pytest.mark.parametrize("scheduler", [RandomScheduler, ReorderScheduler])
def test_every_request_of_a_closed_loop_commits(scheduler, n, t, seed, crashed):
    """A queued request waits for a round in flight; the wait ends when
    that round is delivered, on any schedule and with a replica down."""
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
