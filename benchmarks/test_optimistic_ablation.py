"""E11 — ablation: the "optimistic protocols" extension (Section 6).

The paper closes with the most promising optimization: protocols that
"run very fast if no corruptions occur but may fall back to a slower
mode if necessary", citing Kursawe-Shoup [23].  This benchmark measures
the implemented optimistic atomic broadcast against the randomized one:

* **friendly network**: messages per delivered payload — the fast path
  is a small multiple of n^2 with no agreement at all;
* **under a leader-starving adversary**: the optimistic protocol
  detects the stall, falls back safely, and completes via the
  randomized mode; delivered prefixes are preserved.
"""

from conftest import dealt, emit, make_network

from repro.core.atomic_broadcast import AtomicBroadcast, abc_session
from repro.core.optimistic import OptimisticAtomicBroadcast, opt_abc_session
from repro.core.protocol import Context
from repro.net.scheduler import FifoScheduler, StarvingScheduler


def _run_fast_path(keys, payloads=5, seed=41):
    net, rts = make_network(keys, FifoScheduler(), seed=seed)
    session = opt_abc_session(("e11", seed))
    logs, insts = {}, {}
    for p, rt in rts.items():
        logs[p] = []
        insts[p] = rt.spawn(session, OptimisticAtomicBroadcast(
            on_deliver=lambda m, o, pp=p: logs[pp].append(m)))
    net.start()
    for k in range(payloads):
        insts[0].submit(Context(rts[0], session), ("req", k))
    net.run(until=lambda: all(len(logs[p]) >= payloads for p in rts),
            max_steps=400_000)
    return net.trace.sent / payloads


def _run_randomized(keys, payloads=5, seed=42):
    net, rts = make_network(keys, FifoScheduler(), seed=seed)
    session = abc_session(("e11", seed))
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(session, AtomicBroadcast(
            on_deliver=lambda m, r, pp=p: logs[pp].append(m)))
    net.start()
    for k in range(payloads):
        rts[0].instances[session].submit(Context(rts[0], session), ("req", k))
    net.run(until=lambda: all(len(logs[p]) >= payloads for p in rts),
            max_steps=900_000)
    return net.trace.sent / payloads


def _run_fallback(keys, seed=43):
    net, rts = make_network(
        keys, StarvingScheduler({0}, patience=10_000_000), seed=seed
    )
    session = opt_abc_session(("e11-fb", seed))
    logs, insts = {}, {}
    for p, rt in rts.items():
        logs[p] = []
        insts[p] = rt.spawn(session, OptimisticAtomicBroadcast(
            on_deliver=lambda m, o, pp=p: logs[pp].append((m, o)),
            watchdog_limit=30))
    net.start()
    insts[1].submit(Context(rts[1], session), ("req", "A"))
    insts[2].submit(Context(rts[2], session), ("req", "B"))
    honest = [1, 2, 3]
    steps = 0
    while steps < 400_000 and not all(len(logs[p]) >= 2 for p in honest):
        if not net.step():
            for p in honest:
                insts[p].tick(Context(rts[p], session))
        steps += 1
    consistent = all(logs[p] == logs[honest[0]] for p in honest)
    modes = {insts[p].mode for p in honest}
    return steps, consistent, modes


def test_optimistic_vs_randomized(benchmark):
    keys = dealt(4, 1)
    fast = benchmark.pedantic(
        lambda: _run_fast_path(keys), rounds=1, iterations=1
    )
    randomized = _run_randomized(keys)
    steps, consistent, modes = _run_fallback(keys)
    emit(
        "Optimistic atomic broadcast (Section 6 extension), n=4 t=1",
        [
            f"messages per payload, friendly network:",
            f"  optimistic fast path : {fast:8.1f}",
            f"  randomized protocol  : {randomized:8.1f}  "
            f"({randomized / fast:.1f}x the fast path)",
            f"leader starved by the scheduler:",
            f"  optimistic fell back and delivered in {steps} scheduling "
            f"rounds, modes={modes}, orders consistent: {consistent}",
        ],
    )
    # The point of the optimization, as measured: 40.0 against 70.4
    # messages per payload (1.8x).  It read 89.6 (2.2x, and ``fast * 2 <
    # randomized`` held) while the randomized protocol's vote flipped a
    # real coin in round 1 and its holders waited for their own
    # ``MvbaValue``; ROADMAP's keep-or-delete decision on the optimistic
    # mode starts from the smaller gap.
    assert fast * 1.5 < randomized
    assert consistent
    assert modes == {"pessimistic"}
