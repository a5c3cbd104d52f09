"""E5 — expected-constant-round termination of binary agreement.

The CKS protocol (Section 2/3) terminates "within an expected constant
number of asynchronous rounds", independent of n.  Measured: the
distribution of coin-flip rounds until all honest parties decide, over
repeated adversarially-scheduled runs with split inputs, for
n ∈ {4, 7, 10, 13}.  The paper's claim shows up as a mean round count
that stays flat (well under a small constant) as n grows.

The vote is biased toward 1: round 1 opens no coin (its coin is the
constant 1) and real coins start in round 2, so with split inputs the
count is one coin-free round — which decides when 1 alone gets bound —
plus a geometric number of flipped ones.  Re-taken with that rule the
means read 3.00 / 3.75 / 2.58 / 3.50 (max 7) against 3.25 / 3.00 / 3.17
/ 3.08 (max 7) with a real first coin: flat in n either way, and within
these twelve runs' noise of each other.  (The count is the highest round
a party *entered*, so "2" is a decision in round 1.)
"""

from conftest import dealt, emit, make_network

from repro.core.binary_agreement import BinaryAgreement, aba_session
from repro.net.scheduler import RandomScheduler, ReorderScheduler

RUNS_PER_N = 12
SIZES = ((4, 1), (7, 2), (10, 3), (13, 4))


def _rounds_until_decision(keys, seed, scheduler_cls):
    net, rts = make_network(keys, scheduler_cls(), seed=seed)
    session = aba_session(("e5", seed))
    for p, rt in rts.items():
        rt.spawn(session, BinaryAgreement(p % 2))
    net.run(
        until=lambda: all(rt.result(session) is not None for rt in rts.values()),
        max_steps=900_000,
    )
    # Rounds completed by the slowest decider (coin flips / parties).
    max_round = max(
        max(rt.instances[session].rounds) for rt in rts.values()
    )
    return max_round


def _histogram():
    table = {}
    for n, t in SIZES:
        keys = dealt(n, t)
        rounds = []
        for seed in range(RUNS_PER_N):
            scheduler = RandomScheduler if seed % 2 == 0 else ReorderScheduler
            rounds.append(_rounds_until_decision(keys, 100 + seed, scheduler))
        table[n] = rounds
    return table


def test_expected_constant_rounds(benchmark):
    table = benchmark.pedantic(_histogram, rounds=1, iterations=1)
    rows = [f"{'n':>3} {'mean':>6} {'max':>4}  round histogram"]
    for n, rounds in table.items():
        mean = sum(rounds) / len(rounds)
        hist = {}
        for r in rounds:
            hist[r] = hist.get(r, 0) + 1
        hist_text = "  ".join(f"{r}r:{c}" for r, c in sorted(hist.items()))
        rows.append(f"{n:>3} {mean:>6.2f} {max(rounds):>4}  {hist_text}")
    emit(
        f"Binary agreement rounds to decision ({RUNS_PER_N} adversarially "
        "scheduled runs per n, split inputs)",
        rows,
    )
    means = {n: sum(rs) / len(rs) for n, rs in table.items()}
    # Expected-constant: termination time is geometric (coin agreement
    # each round has constant probability), so means stay small and flat
    # in n while the max carries a geometric tail.
    assert all(mean <= 5 for mean in means.values())
    assert all(max(rs) <= 16 for rs in table.values())
    # No systematic growth: largest n's mean within 2 rounds of smallest's.
    assert abs(means[13] - means[4]) <= 2
