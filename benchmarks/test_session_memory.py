"""E19 — what a replica keeps per protocol session, against history.

Each atomic-broadcast round is one multi-valued agreement with n
consistent broadcasts and its binary votes, all of them protocol
sessions in the replica's runtime.  A long-running service (§5) runs an
unbounded sequence of rounds, so whatever a round leaves behind grows
with history.  Since a round's agreement is closed with its round
record, ``_BUFFER_SLACK`` rounds after delivery (docs/PROTOCOLS.md,
"Round records"), the runtime keeps O(window) sessions.

Serial lone commits on ``build_service`` (64-bit ``small_group()``,
``pipeline_depth`` 4 as in the benchmark's workloads) under FIFO
delivery, which is the lock-step order: every message pending when a
generation starts goes before any sent during it.  Every 50 delivered
rounds the table reads, per party (the largest of the n): live
sessions (``instances``), stored outputs and buffered messages.
"""

from conftest import emit

from repro.core import atomic_broadcast
from repro.core.atomic_broadcast import AbcConfig
from repro.net.scheduler import FifoScheduler
from repro.smr import KeyValueStore, build_service

ROUNDS = 200
EVERY = 50
DEPTH = 4


def _grow(n: int, t: int) -> list[tuple[int, int, int, int]]:
    """``(round, sessions, outputs, buffered)`` every ``EVERY`` rounds."""
    service = build_service(
        n, KeyValueStore, t=t, seed=19, scheduler=FifoScheduler(),
        abc_config=AbcConfig(pipeline_depth=DEPTH),
    )
    client = service.new_client()
    service.network.start()
    abc = service.replicas[0].abc
    rows: list[tuple[int, int, int, int]] = []
    while len(rows) < ROUNDS // EVERY:
        service.run_until_complete(client, [client.submit(("set", "k", abc.round))])
        if abc.round >= EVERY * (len(rows) + 1):
            runtimes = service.runtimes.values()
            rows.append((
                abc.round,
                max(len(rt.instances) for rt in runtimes),
                max(len(rt.outputs) for rt in runtimes),
                max(sum(map(len, rt._buffered.values())) for rt in runtimes),
            ))
    return rows


def test_live_sessions_per_party_are_flat_in_history(benchmark):
    results: dict[int, list[tuple[int, int, int, int]]] = {}

    def run():
        for n, t in ((4, 1), (7, 2)):
            results[n] = _grow(n, t)

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"E19: protocol sessions per party against history (serial lone "
        f"commits, pipeline_depth {DEPTH}, lock-step)",
        [f"{'n':>3} {'round':>6} {'sessions':>9} {'outputs':>8} {'buffered':>9}"]
        + [
            f"{n:>3} {r:>6} {sessions:>9} {outputs:>8} {buffered:>9}"
            for n, rows in results.items()
            for r, sessions, outputs, buffered in rows
        ],
    )
    for n, rows in results.items():
        # The service session, and per live round its agreement, the
        # agreement's n broadcasts and its one vote.
        bound = 1 + (atomic_broadcast._BUFFER_SLACK + DEPTH) * (n + 2)
        assert all(outputs <= sessions <= bound for _r, sessions, outputs, _b in rows)
        assert rows[-1][1] == rows[1][1]  # flat from round 100 to 200
