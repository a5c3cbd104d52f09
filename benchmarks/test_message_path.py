"""E18 — the message path per commit: frames, HMACs, socket calls and
loop turns on sockets, beside the simulator's message count.

Serial lone commits on an in-process n = 4 TCP cluster, counted by
``tests/net/test_message_path.py`` (which says what is wrapped, and pins
in tier-1 the counts the protocol fixes): protocol messages, data frames, standalone acks,
HMACs, socket writes and reads, and event-loop turns, for all five
parties together.  Beside them, what the same number of lone commits
costs on the simulator (``build_service`` under a FIFO scheduler, same
n and group).  The bounds are loose: a data frame needs one HMAC to
make and one to check, and acks ride on the reverse data.
"""

from conftest import emit

from repro.net.scheduler import FifoScheduler
from repro.smr import KeyValueStore, build_service
from tests.net.test_message_path import COMMITS, N, T, count_message_path


def _simulated_messages() -> int:
    service = build_service(N, KeyValueStore, t=T, seed=18, scheduler=FifoScheduler())
    client = service.new_client()
    service.network.start()
    service.run_until_complete(client, [client.submit(("set", "warm-up", 0))])
    service.network.run()
    before = service.network.trace.sent
    for index in range(COMMITS):
        service.run_until_complete(client, [client.submit(("set", "key", index))])
        service.network.run()  # quiescent: the next one rides alone
    return service.network.trace.sent - before


def test_message_path_per_commit(benchmark, monkeypatch, tmp_path):
    messages, calls = benchmark.pedantic(
        count_message_path, args=(monkeypatch, tmp_path), rounds=1, iterations=1
    )
    simulated = _simulated_messages()
    per = {name: value / COMMITS for name, value in calls.items()}
    emit(
        f"E18: the message path per commit (n = {N}, {COMMITS} serial lone "
        "commits, in-process TCP)",
        [
            f"{'msgs (sim)':>10} {'msgs (tcp)':>10} {'data':>7} {'acks':>6} "
            f"{'HMACs':>7} {'writes':>7} {'reads':>7} {'turns':>7}",
            f"{simulated / COMMITS:>10.1f} {messages / COMMITS:>10.1f} "
            f"{per['data']:>7.1f} {per['acks']:>6.1f} {per['hmacs']:>7.1f} "
            f"{per['writes']:>7.1f} {per['reads']:>7.1f} {per['turns']:>7.1f}",
        ],
    )
    assert calls["data"] <= messages
    assert calls["acks"] <= 0.10 * calls["data"]
    assert calls["hmacs"] <= 2.2 * calls["data"]
