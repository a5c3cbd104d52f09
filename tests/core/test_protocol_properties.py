"""Property-based protocol invariants: the paper's guarantees hold for
*every* schedule, so we sample many seeds/schedulers with hypothesis.

Runs are bounded (n=4, short workloads) to keep the suite fast while
still exploring genuinely different adversarial delivery orders.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import ctx_for, make_network

from repro.core.atomic_broadcast import AtomicBroadcast, abc_session
from repro.core.binary_agreement import BinaryAgreement, aba_session
from repro.core.reliable_broadcast import ReliableBroadcast, rbc_session
from repro.net.scheduler import FifoScheduler, RandomScheduler, ReorderScheduler

SCHEDULERS = [FifoScheduler, RandomScheduler, ReorderScheduler]

_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@given(
    seed=st.integers(0, 10_000),
    scheduler_index=st.integers(0, len(SCHEDULERS) - 1),
)
@_settings
def test_rbc_totality_and_agreement_property(keys_4_1, seed, scheduler_index):
    """Honest sender => all honest parties deliver the sender's value."""
    net, rts = make_network(keys_4_1, SCHEDULERS[scheduler_index](), seed=seed)
    session = rbc_session(0, ("prop", seed, scheduler_index))
    for p, rt in rts.items():
        rt.spawn(session, ReliableBroadcast(0, value=("v", seed) if p == 0 else None))
    net.run(
        until=lambda: all(rt.result(session) is not None for rt in rts.values()),
        max_steps=400_000,
    )
    assert {rt.result(session) for rt in rts.values()} == {("v", seed)}


@given(
    seed=st.integers(0, 10_000),
    proposals=st.tuples(*[st.integers(0, 1)] * 4),
    scheduler_index=st.integers(0, len(SCHEDULERS) - 1),
)
@_settings
def test_aba_agreement_and_validity_property(keys_4_1, seed, proposals, scheduler_index):
    """For every input vector and schedule: one decision, and if the
    inputs were unanimous it equals them."""
    net, rts = make_network(keys_4_1, SCHEDULERS[scheduler_index](), seed=seed)
    session = aba_session(("prop", seed, proposals, scheduler_index))
    for p, rt in rts.items():
        rt.spawn(session, BinaryAgreement(proposals[p]))
    net.run(
        until=lambda: all(rt.result(session) is not None for rt in rts.values()),
        max_steps=900_000,
    )
    decisions = {rt.result(session) for rt in rts.values()}
    assert len(decisions) == 1
    decision = decisions.pop()
    if len(set(proposals)) == 1:
        assert decision == proposals[0]
    else:
        assert decision in set(proposals)


@given(seed=st.integers(0, 10_000), payload_count=st.integers(1, 4))
@_settings
def test_abc_total_order_property(keys_4_1, seed, payload_count):
    """Identical delivery sequences at all honest parties, for any
    schedule and any number of concurrent submissions."""
    net, rts = make_network(keys_4_1, RandomScheduler(), seed=seed)
    session = abc_session(("prop", seed, payload_count))
    logs = {p: [] for p in rts}
    for p, rt in rts.items():
        rt.spawn(session, AtomicBroadcast(
            on_deliver=lambda m, r, pp=p: logs[pp].append(m)))
    net.start()
    for k in range(payload_count):
        submitter = (seed + k) % 4
        rts[submitter].instances[session].submit(
            ctx_for(rts[submitter], session), ("req", seed, k)
        )
    net.run(
        until=lambda: all(len(logs[p]) >= payload_count for p in rts),
        max_steps=900_000,
    )
    assert all(logs[p] == logs[0] for p in rts)
    assert len(set(logs[0])) == len(logs[0])
