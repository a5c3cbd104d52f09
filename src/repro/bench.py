"""Tracked crypto/agreement benchmarks (``python -m repro bench``).

The paper's systems run their entire cryptographic load in software, so
modular exponentiation throughput decides end-to-end latency (the
SecureSMART cost profile).  This module measures the primitives this
repository accelerates — simultaneous multi-exponentiation, fixed-base
tables, Jacobi-symbol membership, and batched share verification — and
the n ∈ {4, 7, 16} agreement protocols end to end, writing the results
to ``BENCH_crypto.json`` so regressions are visible in review (see
docs/PERFORMANCE.md for how to read the numbers).

Every speedup compares two paths the tree ships today (``pow`` against
the tables, per-share verification against the batch); no copy of a
removed path is kept here to measure against.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import ExitStack
from typing import Callable
from unittest import mock

from .crypto import accel as accel_module
from .crypto.accel import FixedBaseTable, GroupAccel, accel_for, multiexp
from .crypto.coin import deal_coin
from .crypto.groups import SchnorrGroup, default_group
from .crypto.lsss import threshold_scheme
from .crypto.numtheory import jacobi
from .crypto.schnorr import VerifiedMemo, keygen, verify_batch
from .crypto.threshold_enc import deal_encryption
from .crypto.threshold_sig import deal_quorum_certs, deal_shoup_rsa

__all__ = ["run_benchmarks", "main", "guard_compare", "main_guard"]

# The headline configuration from ISSUE tracking: a 16-server system
# tolerating 5 corruptions (quorums of t+1 = 6 open the coin).
_N, _T = 16, 5


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (best is least noisy)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _batch_vs_per_share(
    per_share: Callable[[], None], batch: Callable[[], None], repeats: int, **shape
) -> dict:
    """Time per-share against batched verification of one quorum."""
    batch()  # warm the accel tables and hash caches for both paths
    t_per_share = _time(per_share, repeats) * 1e3
    t_batch = _time(batch, repeats) * 1e3
    return {
        **shape,
        "per_share_ms": t_per_share,
        "batch_ms": t_batch,
        "speedup_batch_vs_per_share": t_per_share / t_batch,
    }


# -- microbenchmarks -------------------------------------------------------------


def _bench_primitives(group: SchnorrGroup, rng: random.Random, repeats: int) -> dict:
    p, q = group.p, group.q
    exponent = rng.randrange(1, q)
    element = group.random_element(rng)
    pairs = [
        (group.random_element(rng), rng.randrange(1, q)) for _ in range(8)
    ]
    accel = accel_for(group)
    for _ in range(64):  # let auto-tabling kick in for the fixed base
        accel.exp(element, exponent)

    t_pow = _time(lambda: pow(element, exponent, p), repeats * 50) * 1e6
    t_table = _time(lambda: accel.exp(element, exponent), repeats * 50) * 1e6
    t_naive_product = _time(
        lambda: [pow(b, e, p) for b, e in pairs], repeats * 10
    ) * 1e6
    t_multiexp = _time(lambda: multiexp(p, pairs), repeats * 10) * 1e6
    t_member_pow = _time(lambda: pow(element, q, p) == 1, repeats * 50) * 1e6
    t_member_jacobi = _time(lambda: jacobi(element, p) == 1, repeats * 50) * 1e6
    return {
        "pow_us": t_pow,
        "fixed_base_table_us": t_table,
        "fixed_base_speedup": t_pow / t_table,
        "naive_8_term_product_us": t_naive_product,
        "multiexp_8_term_us": t_multiexp,
        "multiexp_speedup": t_naive_product / t_multiexp,
        "membership_pow_us": t_member_pow,
        "membership_jacobi_us": t_member_jacobi,
        "membership_speedup": t_member_pow / t_member_jacobi,
    }


def _bench_coin_quorum(group: SchnorrGroup, rng: random.Random, repeats: int) -> dict:
    scheme = threshold_scheme(_N, _T, group.q)
    public, holders = deal_coin(group, scheme, rng)
    name = ("bench-coin", 1)
    quorum = [holders[party].share_for(name, rng) for party in sorted(holders)[: _T + 1]]

    def per_share() -> None:
        assert all(public.verify_share(s) for s in quorum)

    def batch() -> None:
        assert len(public.verify_shares(name, quorum)) == len(quorum)

    return _batch_vs_per_share(
        per_share, batch, repeats, n=_N, t=_T, quorum_shares=len(quorum)
    )


def _bench_coin_round(group: SchnorrGroup, rng: random.Random, repeats: int) -> dict:
    """What one party pays per coin flip at n = 4, t = 1 — make its share,
    verify a quorum (its own share included) and combine — in time and
    in counted fresh-base pows, table pows and squaring chains."""
    public, holders = deal_coin(group, threshold_scheme(4, 1, group.q), rng)
    names = [("bench-coin-round", index) for index in range(repeats + 2)]
    peer = {name: holders[1].share_for(name, rng) for name in names}
    memo, pending, counts = VerifiedMemo(), iter(names), Counter()

    def one_round() -> None:
        name = next(pending)
        own = holders[0].share_for(name, rng, memo)
        public.combine(name, public.verify_shares(name, [own, peer[name]], memo))

    one_round()  # warm: the key's own g^x_slot, computed once
    counted = (
        (GroupAccel, "exp_once", "fresh_base_pows"),
        (FixedBaseTable, "pow", "table_pows"),
        (accel_module, "_straus", "chains"),
    )
    with ExitStack() as stack:
        for owner, attr, label in counted:
            def counting(*args, _fn=getattr(owner, attr), _label=label):
                counts[_label] += 1
                return _fn(*args)
            stack.enter_context(mock.patch.object(owner, attr, counting))
        one_round()
    return {"n": 4, "t": 1, "ms": _time(one_round, repeats) * 1e3, **counts}


def _bench_decryption_quorum(
    group: SchnorrGroup, rng: random.Random, repeats: int
) -> dict:
    scheme = threshold_scheme(_N, _T, group.q)
    public, holders = deal_encryption(group, scheme, rng)
    ct = public.encrypt(b"benchmark payload", b"label", rng)
    quorum = [
        holders[party].decryption_share(ct, rng)
        for party in sorted(holders)[: _T + 1]
    ]

    def per_share() -> None:
        assert all(public.verify_share(ct, s) for s in quorum)

    def batch() -> None:
        assert len(public.verify_shares(ct, quorum)) == len(quorum)

    return _batch_vs_per_share(
        per_share, batch, repeats, n=_N, t=_T, quorum_shares=len(quorum)
    )


def _bench_rsa_quorum(rng: random.Random, repeats: int, bits: int) -> dict:
    public, holders = deal_shoup_rsa(_N, _T + 1, rng, bits=bits)
    message = ("bench-rsa", 1)
    quorum = [
        holders[party].sign_share(message, rng)
        for party in sorted(holders)[: _T + 1]
    ]

    def per_share() -> None:
        assert all(public.verify_share(message, s) for s in quorum)

    def batch() -> None:
        assert len(public.verify_shares(message, quorum)) == len(quorum)

    return _batch_vs_per_share(
        per_share, batch, repeats,
        n=_N, k=_T + 1, modulus_bits=bits, quorum_shares=len(quorum),
    )


def _bench_cert_quorum(group: SchnorrGroup, rng: random.Random, repeats: int) -> dict:
    keys = {party: keygen(rng, group) for party in range(_N)}
    public, holders = deal_quorum_certs(
        keys, qualifier=lambda signers: len(signers) >= _N - _T
    )
    message = ("bench-cert", 1)
    shares = {
        party: holders[party].sign_share(message, rng)
        for party in range(_N - _T)
    }
    items = [
        (public.verify_keys[party], (public.tag, message), sig)
        for party, sig in sorted(shares.items())
    ]

    def per_share() -> None:
        assert all(
            public.verify_share(message, (party, sig))
            for party, sig in shares.items()
        )

    def batch() -> None:
        assert verify_batch(group, items)

    return _batch_vs_per_share(per_share, batch, repeats, n=_N, quorum_shares=len(shares))


# -- end-to-end agreement --------------------------------------------------------


# Benchmark system sizes with their maximal classical resilience.
_AGREEMENT_SIZES = {4: 1, 7: 2, 16: 5}


def _bench_agreement(n: int, seed: int, instances: int) -> dict:
    from .core.binary_agreement import BinaryAgreement, aba_session
    from .core.runtime import ProtocolRuntime
    from .crypto.dealer import deal_system
    from .net.scheduler import RandomScheduler
    from .net.simulator import Network

    t = _AGREEMENT_SIZES[n]
    rng = random.Random(seed)
    keys = deal_system(n, rng, t=t)
    network = Network(RandomScheduler(), random.Random(seed))
    runtimes = {}
    for party in range(n):
        runtime = ProtocolRuntime(
            party, network, keys.public, keys.private[party], seed=seed
        )
        network.attach(party, runtime)
        runtimes[party] = runtime

    start = time.perf_counter()
    decided = 0
    for tag in range(instances):
        session = aba_session(("bench", tag))
        for party, runtime in runtimes.items():
            runtime.spawn(session, BinaryAgreement(party % 2))
        network.run(
            max_steps=2_000_000,
            until=lambda: all(
                r.result(session) is not None for r in runtimes.values()
            ),
        )
        outputs = {r.result(session) for r in runtimes.values()}
        assert len(outputs) == 1 and None not in outputs
        decided += 1
    elapsed = time.perf_counter() - start
    return {
        "n": n,
        "t": t,
        "instances": decided,
        "total_s": elapsed,
        "per_instance_ms": elapsed / decided * 1e3,
        "messages_delivered": network.delivered_count,
    }


def _bench_dkg(n: int, t: int, seed: int, repeats: int) -> dict:
    """Wall time for a complete dealerless key generation on the
    simulated network: ``n`` parties deal Feldman-committed sharings,
    cross-verify subshares, agree on the qualified set, and assemble
    dealer-compatible keys.

    Besides the absolute wall time per (n, t), the section records
    ``dealer_to_dkg_ratio`` — the centralized dealer's wall time over
    the DKG's on the same shape.  Both sides are dominated by the same
    group exponentiations on the same machine, so the ratio is stable
    across hosts and is what the regression guard tracks: a pessimized
    DKG hot path (tree commitments, subshare verification) shrinks it.
    """
    from .adversary.quorums import quorum_system_for
    from .core.runtime import ProtocolRuntime
    from .crypto.dealer import deal_system
    from .crypto.dkg import (
        BootstrapPublic,
        DistributedKeyGeneration,
        build_party_keys,
        build_public_keys,
        dkg_session,
        provision_bootstrap,
    )
    from .net.scheduler import RandomScheduler
    from .net.simulator import Network

    group = default_group()
    scheme = threshold_scheme(n, t, group.q)
    quorum = quorum_system_for(n, t=t)
    bundles = provision_bootstrap(list(range(n)), random.Random(seed), group)

    best = float("inf")
    messages = 0
    for attempt in range(repeats):
        network = Network(RandomScheduler(), random.Random(seed + attempt))
        public = BootstrapPublic(n=n, quorum=quorum)
        runtimes = {}
        for party in range(n):
            runtime = ProtocolRuntime(
                party, network, public, bundles[party], seed=seed + attempt
            )
            network.attach(party, runtime)
            runtimes[party] = runtime
        session = dkg_session(("bench", attempt))

        start = time.perf_counter()
        for party in range(n):
            runtimes[party].spawn(
                session, DistributedKeyGeneration(group, scheme)
            )
        network.run(
            max_steps=5_000_000,
            until=lambda: all(
                r.result(session) is not None for r in runtimes.values()
            ),
        )
        outputs = {p: runtimes[p].result(session) for p in range(n)}
        assert all(out is not None for out in outputs.values())
        assembled = build_public_keys(group, scheme, quorum, n, outputs[0])
        build_party_keys(0, assembled, bundles[0].signing_key, outputs[0])
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            messages = network.delivered_count

    dealer_s = _time(
        lambda: deal_system(n, random.Random(seed), t=t, group=group),
        repeats,
    )
    return {
        "n": n,
        "t": t,
        "wall_s": best,
        "per_party_ms": best / n * 1e3,
        "dealer_s": dealer_s,
        "dealer_to_dkg_ratio": dealer_s / best,
        "messages_delivered": messages,
    }


# -- driver ----------------------------------------------------------------------


def run_benchmarks(seed: int = 0, smoke: bool = False) -> dict:
    """Run the suite; ``smoke`` trims repeats for CI wiring checks."""
    rng = random.Random(seed)
    group = default_group()
    repeats = 1 if smoke else 5
    rsa_bits = 256 if smoke else 512
    agreement_sizes = [4] if smoke else [4, 7, 16]
    agreement_instances = 1 if smoke else 3
    dkg_shapes = [(4, 1)] if smoke else [(4, 1), (7, 2), (10, 3)]
    dkg_repeats = 1 if smoke else 3

    results: dict = {
        "config": {
            "seed": seed,
            "smoke": smoke,
            "group_bits": group.p.bit_length(),
            "repeats": repeats,
        },
        "primitives": _bench_primitives(group, rng, repeats),
        "coin_quorum": _bench_coin_quorum(group, rng, repeats),
        "coin_round": _bench_coin_round(group, rng, repeats),
        "decryption_quorum": _bench_decryption_quorum(group, rng, repeats),
        "rsa_quorum": _bench_rsa_quorum(rng, repeats, rsa_bits),
        "cert_quorum": _bench_cert_quorum(group, rng, repeats),
        "agreement": {
            f"n{n}": _bench_agreement(n, seed, agreement_instances)
            for n in agreement_sizes
        },
        "dkg": {
            f"n{n}t{t}": _bench_dkg(n, t, seed, dkg_repeats)
            for n, t in dkg_shapes
        },
    }
    return results


def main(seed: int, out: str, smoke: bool) -> int:
    results = run_benchmarks(seed=seed, smoke=smoke)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    coin = results["coin_quorum"]
    print(
        f"coin quorum (n={coin['n']}, t={coin['t']}): "
        f"per-share {coin['per_share_ms']:.2f}ms  "
        f"batch {coin['batch_ms']:.2f}ms  "
        f"({coin['speedup_batch_vs_per_share']:.1f}x)"
    )
    for label, section in results["agreement"].items():
        print(
            f"agreement {label}: {section['per_instance_ms']:.0f}ms/instance "
            f"({section['messages_delivered']} messages)"
        )
    for label, section in results["dkg"].items():
        print(
            f"dkg {label}: {section['wall_s'] * 1e3:.0f}ms wall "
            f"({section['messages_delivered']} messages, "
            f"dealer/dkg {section['dealer_to_dkg_ratio']:.3f})"
        )
    print(f"wrote {out}")
    return 0


# -- regression guard -------------------------------------------------------------
#
# CI produces fresh *smoke* numbers and compares them against the
# committed full-mode artifacts, so the catalogue records how much each
# metric sags in smoke mode (fewer repeats, smaller keys, shorter
# windows).  The floor for a metric is
#
#     committed * (1 - tolerance - smoke_slack)
#
# where smoke_slack applies only when the fresh and committed runs used
# different modes.  Primitives ratios and the coin's batch-vs-per-share
# ratio are stable across modes (tight slack: committed ~1.9x, floor
# ~1.0x, so a batch path that stops beating per-share fails; 20 smoke
# runs on an idle box read 1.32..2.25 against 1.88..2.06 in full mode);
# the RSA and DKG ratios are timing-noise dominated in smoke mode (loose
# slack) — the guard still catches the catastrophic regressions (an
# accidentally disabled fast path reads ~1.0x).

# (path, smoke_slack) per artifact kind; paths are dotted keys.
GUARD_METRICS: dict[str, tuple[tuple[str, float], ...]] = {
    "crypto": (
        ("primitives.multiexp_speedup", 0.15),
        ("primitives.fixed_base_speedup", 0.15),
        ("primitives.membership_speedup", 0.15),
        ("coin_quorum.speedup_batch_vs_per_share", 0.15),
        ("rsa_quorum.speedup_batch_vs_per_share", 0.45),
        ("dkg.n4t1.dealer_to_dkg_ratio", 0.45),
    ),
}


def _dig(data: dict, path: str) -> object | None:
    node: object = data
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def guard_compare(
    kind: str, fresh: dict, committed: dict, tolerance: float = 0.30
) -> tuple[list[str], list[str]]:
    """Compare fresh bench numbers against a committed artifact.

    Returns ``(failures, notes)``; empty ``failures`` means no metric
    regressed below its floor.  Pure function over the two JSON dicts,
    so it is unit-testable without running any benchmark.
    """
    failures: list[str] = []
    notes: list[str] = []
    fresh_smoke = bool(_dig(fresh, "config.smoke"))
    committed_smoke = bool(_dig(committed, "config.smoke"))
    modes_differ = fresh_smoke != committed_smoke
    for path, smoke_slack in GUARD_METRICS.get(kind, ()):
        reference = _dig(committed, path)
        current = _dig(fresh, path)
        if not isinstance(reference, (int, float)):
            notes.append(f"{kind}:{path}: not in committed artifact, skipped")
            continue
        if not isinstance(current, (int, float)):
            failures.append(f"{kind}:{path}: missing from fresh results")
            continue
        slack = smoke_slack if modes_differ else 0.0
        floor = reference * (1.0 - tolerance - slack)
        if current < floor:
            failures.append(
                f"{kind}:{path}: {current:.3f} < floor {floor:.3f} "
                f"(committed {reference:.3f}, tolerance {tolerance:.0%}"
                + (f" + smoke slack {slack:.0%}" if slack else "")
                + ")"
            )
        else:
            notes.append(
                f"{kind}:{path}: {current:.3f} vs committed {reference:.3f} "
                f"(floor {floor:.3f}) ok"
            )
    return failures, notes


def main_guard(
    crypto_fresh: str | None,
    crypto_committed: str = "BENCH_crypto.json",
    tolerance: float = 0.30,
) -> int:
    """CLI driver for ``python -m repro bench guard``."""
    import pathlib

    if crypto_fresh is None:
        print("bench guard: nothing to compare (pass --crypto-fresh)")
        return 2
    for label, path in (("fresh", crypto_fresh), ("committed", crypto_committed)):
        if not pathlib.Path(path).exists():
            print(f"bench guard: crypto {label} file {path} not found")
            return 2
    with open(crypto_fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    with open(crypto_committed, encoding="utf-8") as fh:
        committed = json.load(fh)
    failures, notes = guard_compare("crypto", fresh, committed, tolerance=tolerance)
    for note in notes:
        print(f"bench guard: {note}")
    for failure in failures:
        print(f"bench guard: REGRESSION {failure}")
    if failures:
        print(f"bench guard: FAILED ({len(failures)} regression(s))")
        return 1
    print("bench guard: ok")
    return 0
