"""E6 — atomic broadcast: liveness, total order, and fairness.

Section 3: the protocol "guarantees liveness and fairness, i.e., a
message broadcast by an honest party cannot be delayed arbitrarily by
the adversary once it is known to at least t+1 honest parties."

Measured: (a) identical delivery order across honest parties for a
burst of client payloads under an adversarial scheduler; (b) the
number of rounds a payload held by t+1 honest parties waits before
delivery, while the adversary starves one holder and floods noise —
the paper's bound shows up as delivery within the next round or two.
"""

from conftest import dealt, emit, make_network

from repro.core.atomic_broadcast import AtomicBroadcast, abc_session
from repro.core.protocol import Context
from repro.net.adversary import SilentNode
from repro.net.scheduler import DelayScheduler, ReorderScheduler


def _spawn(rts, session):
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(
            session, AtomicBroadcast(on_deliver=lambda m, r, pp=p: logs[pp].append((m, r)))
        )
    return logs


def _submit(rts, session, party, payload):
    inst = rts[party].instances[session]
    inst.submit(Context(rts[party], session), payload)


def _burst_total_order(keys, burst=8, seed=11):
    net, rts = make_network(keys, ReorderScheduler(), seed=seed)
    session = abc_session(("e6", seed))
    logs = _spawn(rts, session)
    net.start()
    for k in range(burst):
        _submit(rts, session, k % keys.public.n, ("req", k))
    net.run(
        until=lambda: all(len(logs[p]) >= burst for p in rts), max_steps=1_200_000
    )
    orders = [[m for m, _ in logs[p]] for p in rts]
    rounds = max(r for _m, r in logs[0])  # the global round of the last delivery
    return orders, rounds, net.delivered_count


def _fairness_under_attack(keys, seed=12):
    """Payload held by exactly t+1 honest parties; one of them starved."""
    net, rts = make_network(keys, DelayScheduler({1}), seed=seed, parties=[0, 1, 2])
    net.attach(3, SilentNode())  # t=1 corruption on top
    session = abc_session(("e6-fair", seed))
    logs = _spawn(rts, session)
    net.start()
    for holder in (0, 1):  # t+1 = 2 holders
        _submit(rts, session, holder, ("held", "payload"))
    for p in rts:
        for k in range(3):
            _submit(rts, session, p, ("noise", p, k))
    net.run(
        until=lambda: all(any(m == ("held", "payload") for m, _ in logs[p]) for p in rts),
        max_steps=1_200_000,
    )
    delivery_round = next(
        r for m, r in logs[0] if m == ("held", "payload")
    )
    return delivery_round


def test_abc_order_and_fairness(benchmark):
    keys = dealt(4, 1)
    (orders, rounds, delivered) = benchmark.pedantic(
        lambda: _burst_total_order(keys), rounds=1, iterations=1
    )
    fairness_round = _fairness_under_attack(keys)

    emit(
        "Atomic broadcast: total order + fairness (n=4, t=1)",
        [
            f"burst of 8 payloads, adversarial (LIFO) scheduling:",
            f"  identical order at all parties: {all(o == orders[0] for o in orders)}",
            f"  delivery order: {orders[0]}",
            f"  global rounds: {rounds}, messages delivered: {delivered}",
            f"payload held by t+1 honest parties, one holder starved, "
            f"noise flooding:",
            f"  delivered in global round {fairness_round} "
            f"(paper: cannot be delayed arbitrarily)",
        ],
    )
    assert all(order == orders[0] for order in orders)
    assert len(set(orders[0])) == 8
    assert fairness_round <= 3


def test_abc_throughput_vs_n(benchmark):
    rows = []

    def run():
        rows.clear()
        for n, t in ((4, 1), (7, 2), (10, 3)):
            keys = dealt(n, t)
            net, rts = make_network(keys, seed=20 + n)
            session = abc_session(("e6-scale", n))
            logs = _spawn(rts, session)
            net.start()
            for p in rts:
                _submit(rts, session, p, ("req", p))
            net.run(
                until=lambda: all(len(logs[p]) >= n for p in rts),
                max_steps=2_000_000,
            )
            rounds = rts[0].instances[session].round
            rows.append((n, t, net.trace.sent, rounds))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Atomic broadcast cost vs n (n concurrent client payloads)",
        [f"{'n':>3} {'t':>3} {'msgs sent':>10} {'rounds':>7}"]
        + [f"{n:>3} {t:>3} {sent:>10} {rounds:>7}" for n, t, sent, rounds in rows],
    )
    # All payloads land within a handful of global rounds regardless of
    # n (payloads arriving while a round is in flight wait one round).
    assert all(rounds <= 6 for _, _, _, rounds in rows)
