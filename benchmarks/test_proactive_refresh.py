"""E14 — ablation: proactive share refresh (Section 6).

The paper's first extension: reshare key material between epochs so
that everything a mobile adversary captured in past epochs becomes
useless.  Measured on the path the live system takes for an ordered
``refresh`` — a dealerless key generation followed by verifiable
resharing sessions onto the same membership, on the simulator — across
n: three epochs each, the shared key invariant, every subshare rotating
every epoch, and t old subshares + one new one missing the key while
t+1 new ones open it.
"""

from conftest import emit

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
