"""E14 — ablation: proactive share refresh (Section 6).

The paper's first extension: reshare key material between epochs so
that everything a mobile adversary captured in past epochs becomes
useless.  Measured on the path the live system takes for an ordered
``refresh`` — a dealerless key generation followed by verifiable
resharing sessions onto the same membership, on the simulator — across
n: three epochs each, the shared key invariant, every subshare rotating
every epoch, and t old subshares + one new one missing the key while
t+1 new ones open it.

A second table prices the first step of that path: the wall time of one
dealerless key generation in the 256-bit group per (n, t), beside the
trusted dealer it replaces.
"""

import random
import time

from conftest import best_of, emit

from repro.adversary.quorums import quorum_system_for
from repro.core.runtime import ProtocolRuntime
from repro.crypto.dealer import deal_system
from repro.crypto.dkg import (
    BootstrapPublic,
    build_party_keys,
    build_public_keys,
    dkg_session,
    key_generation,
    provision_bootstrap,
)
from repro.crypto.groups import default_group
from repro.crypto.lsss import threshold_scheme
from repro.net.scheduler import RandomScheduler
from repro.net.simulator import Network
from tests.crypto.test_dkg import _run_dkg, _spawn_reshare
from tests.crypto.test_proactive import _opens_key
from tests.helpers import run_until_outputs

EPOCHS = 3


def test_proactive_refresh(benchmark):
    rows = []

    def run():
        rows.clear()
        for n, t in ((4, 1), (7, 2), (16, 5)):
            members = list(range(n))
            scheme, quorum, network, runtimes, session = _run_dkg(n, t, seed=60)
            history = [
                run_until_outputs(network, runtimes, session, max_steps=3_000_000)
            ]
            for epoch in range(EPOCHS):
                network, runtimes, session, _ = _spawn_reshare(
                    scheme, history[-1], quorum, scheme, quorum, members,
                    61 + epoch, members,
                )
                history.append(
                    run_until_outputs(network, runtimes, session, max_steps=3_000_000)
                )
            first, last = history[0], history[-1]
            assert last[0].encryption_h == first[0].encryption_h
            # Secret invariant across epochs: t+1 final subshares open it.
            assert _opens_key(scheme, last, members[: t + 1])
            # Every share changed every epoch.
            changed = all(
                after[p].enc_subshares[slot] != value
                for before, after in zip(history, history[1:])
                for p in members
                for slot, value in before[p].enc_subshares.items()
            )
            # Mobile adversary: t subshares from epoch 0 plus one from the
            # final epoch do not reconstruct.
            stale = {p: first[p] for p in members[:t]}
            mixed_opens = _opens_key(scheme, last, members[: t + 1], stale=stale)
            rows.append((n, t, EPOCHS, changed, not mixed_opens))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Proactive refresh (Section 6): epochs of verifiable resharing",
        [f"{'n':>3} {'t':>3} {'epochs':>7} {'shares rotate':>14} "
         f"{'stale mix useless':>18}"]
        + [
            f"{n:>3} {t:>3} {e:>7} {str(ch):>14} {str(stale):>18}"
            for n, t, e, ch, stale in rows
        ],
    )
    assert all(ch and stale for _, _, _, ch, stale in rows)


def _dkg_once(group, n, t, bundles, seed):
    """Seconds and delivered messages of one complete key generation on
    the simulator: deal, cross-verify, agree on the qualified set,
    assemble dealer-compatible keys."""
    scheme = threshold_scheme(n, t, group.q)
    quorum = quorum_system_for(n, t=t)
    network = Network(RandomScheduler(), random.Random(seed))
    public = BootstrapPublic(n=n, quorum=quorum)
    runtimes = {}
    for party in range(n):
        runtimes[party] = ProtocolRuntime(
            party, network, public, bundles[party], seed=seed
        )
        network.attach(party, runtimes[party])
    session = dkg_session(("e14", seed))
    verify_keys = {p: bundles[p].signing_key.verify_key.h for p in range(n)}
    start = time.perf_counter()
    for party, runtime in runtimes.items():
        runtime.spawn(
            session,
            key_generation(group, scheme, quorum, verify_keys, party, runtime.rng),
        )
    outputs = run_until_outputs(network, runtimes, session, max_steps=5_000_000)
    assembled = build_public_keys(group, scheme, quorum, n, outputs[0])
    build_party_keys(0, assembled, bundles[0].signing_key, outputs[0])
    return time.perf_counter() - start, network.delivered_count


def test_dkg_wall_time(benchmark):
    group = default_group()
    rows = []

    def run():
        rows.clear()
        for n, t in ((4, 1), (7, 2), (10, 3)):
            bundles = provision_bootstrap(list(range(n)), random.Random(70), group)
            wall, messages = min(
                _dkg_once(group, n, t, bundles, 70 + attempt) for attempt in range(3)
            )
            dealer = best_of(
                lambda: deal_system(n, random.Random(70), t=t, group=group), 3
            )
            rows.append(
                f"{n:>3} {t:>3}   {1e3 * wall:>8.0f} {1e3 * wall / n:>10.1f} "
                f"{messages:>9} {1e3 * dealer:>10.2f} {dealer / wall:>11.4f}"
            )

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Dealerless key generation (256-bit group, simulator): best of 3",
        [f"{'n':>3} {'t':>3}   {'wall ms':>8} {'ms/party':>10} {'messages':>9} "
         f"{'dealer ms':>10} {'dealer/DKG':>11}"] + rows,
    )
