"""E8 — threshold-cryptography primitive costs.

The paper argues the randomized protocols are "quite practical given
current processor speed" (Section 2).  This benchmark measures the
primitive operations everything else is built from, across group sizes
and party counts: coin share/verify/combine, TDH2 encrypt/share/
combine, Shoup RSA sign-share/verify/combine, and Schnorr signatures —
and what verifying one quorum of shares in a batch saves over checking
them one by one (docs/PERFORMANCE.md, "Batched share verification"),
and what one replica's coin costs with and without the coin base's
squaring ladder and the opening by small integers.
"""

import random
import time

import pytest
from bench.workloads import modp_1536_group

from conftest import best_of, emit

from repro.crypto import accel
from repro.crypto.coin import deal_coin
from repro.crypto.groups import default_group, small_group
from repro.crypto.lsss import threshold_scheme
from repro.crypto.schnorr import VerifiedMemo, keygen, verify_batch
from repro.crypto.shared_exponent import SharedExponentPublic
from repro.crypto.threshold_enc import deal_encryption
from repro.crypto.threshold_sig import deal_quorum_certs, deal_shoup_rsa

_RSA_CACHE = {}
_COIN_CACHE = {}
_ENC_CACHE = {}


def _coin(n, t, group):
    key = (n, t, group.p)
    if key not in _COIN_CACHE:
        scheme = threshold_scheme(n, t, group.q)
        _COIN_CACHE[key] = deal_coin(group, scheme, random.Random(1))
    return _COIN_CACHE[key]


def _enc(n, t, group):
    key = (n, t, group.p)
    if key not in _ENC_CACHE:
        scheme = threshold_scheme(n, t, group.q)
        _ENC_CACHE[key] = deal_encryption(group, scheme, random.Random(2))
    return _ENC_CACHE[key]


def _rsa(n, k, bits):
    key = (n, k, bits)
    if key not in _RSA_CACHE:
        _RSA_CACHE[key] = deal_shoup_rsa(n, k, random.Random(3), bits=bits)
    return _RSA_CACHE[key]


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (16, 5)])
def test_coin_combine(benchmark, n, t):
    group = default_group()
    public, holders = _coin(n, t, group)
    rng = random.Random(4)
    shares = {i: holders[i].share_for("bench", rng) for i in range(t + 1)}
    value = benchmark(lambda: public.combine("bench", shares))
    assert value in (0, 1)


@pytest.mark.parametrize("n,t", [(4, 1), (16, 5)])
def test_coin_share_and_verify(benchmark, n, t):
    group = default_group()
    public, holders = _coin(n, t, group)
    rng = random.Random(5)

    def share_and_verify():
        share = holders[0].share_for("bench2", rng)
        assert public.verify_share(share)
        return share

    benchmark(share_and_verify)


@pytest.mark.parametrize("n,t,bits", [(4, 1, 256), (16, 5, 256), (4, 1, 1536)])
def test_tdh2_roundtrip(benchmark, n, t, bits):
    group = modp_1536_group() if bits == 1536 else default_group()
    public, holders = _enc(n, t, group)
    rng = random.Random(6)
    message = b"a confidential service request"

    def roundtrip():
        ct = public.encrypt(message, b"label", rng)
        shares = {i: holders[i].decryption_share(ct, rng) for i in range(t + 1)}
        return public.combine(ct, shares)

    assert benchmark(roundtrip) == message


@pytest.mark.parametrize("bits", [256, 512])
def test_shoup_rsa_sign_and_combine(benchmark, bits):
    public, holders = _rsa(4, 2, bits)
    rng = random.Random(7)

    def sign_combine():
        shares = {i: holders[i].sign_share("msg", rng) for i in (1, 2)}
        assert all(public.verify_share("msg", s) for s in shares.values())
        return public.combine("msg", shares)

    signature = benchmark(sign_combine)
    assert public.verify("msg", signature)


def test_schnorr_sign_verify(benchmark):
    key = keygen(random.Random(8), default_group())
    rng = random.Random(9)

    def sign_verify():
        sig = key.sign("channel message", rng)
        assert key.verify_key.verify("channel message", sig)

    benchmark(sign_verify)


def test_primitive_cost_summary(benchmark):
    """One-shot summary table (the per-op timings live in the
    pytest-benchmark output above)."""
    group = default_group()
    rows = []

    def measure():
        rows.clear()
        _collect()
        return rows

    def _collect():
        for n, t in ((4, 1), (7, 2), (16, 5)):
            public, holders = _coin(n, t, group)
            rng = random.Random(10)
            t0 = time.perf_counter()
            shares = {i: holders[i].share_for("x", rng) for i in range(t + 1)}
            t1 = time.perf_counter()
            ok = all(public.verify_share(s) for s in shares.values())
            t2 = time.perf_counter()
            public.combine("x", shares)
            t3 = time.perf_counter()
            rows.append(
                f"{n:>3} {t:>3}   {1000 * (t1 - t0) / (t + 1):8.2f} "
                f"{1000 * (t2 - t1) / (t + 1):8.2f} {1000 * (t3 - t2):8.2f}"
            )
            assert ok

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "Threshold coin (256-bit group): per-op cost in ms",
        [f"{'n':>3} {'t':>3}   {'share':>8} {'verify':>8} {'combine':>8}"] + rows,
    )


def test_quorum_batch_vs_per_share(benchmark):
    """One quorum at n = 16, t = 5, verified share by share and in one
    batch: the four share kinds the protocols count to a quorum."""
    n, t = 16, 5
    group = default_group()
    rng = random.Random(11)
    cases = []  # (label, shares in the quorum, per-share check, batch check)

    coin, coin_holders = _coin(n, t, group)
    flips = [coin_holders[i].share_for("quorum", rng) for i in range(t + 1)]
    cases.append((
        "coin", len(flips),
        lambda: all(coin.verify_share(s) for s in flips),
        lambda: len(coin.verify_shares("quorum", flips)) == len(flips),
    ))

    enc, enc_holders = _enc(n, t, group)
    ct = enc.encrypt(b"a confidential service request", b"label", rng)
    dec = [enc_holders[i].decryption_share(ct, rng) for i in range(t + 1)]
    cases.append((
        "TDH2", len(dec),
        lambda: all(enc.verify_share(ct, s) for s in dec),
        lambda: len(enc.verify_shares(ct, dec)) == len(dec),
    ))

    keys = {party: keygen(rng, group) for party in range(n)}
    cert, signers = deal_quorum_certs(
        keys, qualifier=lambda parties: len(parties) >= n - t
    )
    sigs = {i: signers[i].sign_share("quorum", rng) for i in range(n - t)}
    items = [
        (cert.verify_keys[i], (cert.tag, "quorum"), sig)
        for i, sig in sorted(sigs.items())
    ]
    cases.append((
        "certificate", len(sigs),
        lambda: all(cert.verify_share("quorum", pair) for pair in sigs.items()),
        lambda: verify_batch(group, items),
    ))

    rsa, rsa_holders = _rsa(n, t + 1, 512)
    parts = [rsa_holders[i].sign_share("quorum", rng) for i in sorted(rsa_holders)[: t + 1]]
    cases.append((
        "Shoup RSA 512", len(parts),
        lambda: all(rsa.verify_share("quorum", s) for s in parts),
        lambda: len(rsa.verify_shares("quorum", parts)) == len(parts),
    ))

    rows = []

    def measure():
        rows.clear()
        for label, count, per_share, batch in cases:
            assert per_share() and batch()  # also warms tables and caches
            one_by_one, batched = 1e3 * best_of(per_share, 5), 1e3 * best_of(batch, 5)
            rows.append(
                f"{label:<14} {count:>6}   {one_by_one:>9.2f} {batched:>8.2f} "
                f"{one_by_one / batched:>7.2f}x"
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "One quorum of shares (n=16, t=5, 256-bit group): per-share vs batch, ms",
        [f"{'share kind':<14} {'shares':>6}   {'per-share':>9} {'batch':>8} "
         f"{'speed-up':>8}"] + rows,
    )


def _lagrange_recombine(public, shares):
    """The opening a coin had before it opened by small integers:
    ``Π value^λ`` over Lagrange coefficients mod q (full-size)."""
    lam = public.scheme.recombination(set(shares))
    return public.group.multiexp(
        (shares[public.scheme.slot_owner(slot)].values[slot], coeff)
        for slot, coeff in lam.items()
    )


def test_one_replicas_coin(benchmark, monkeypatch):
    """One party's whole coin, n = 4, t = 1: make its share, check the
    t shares of others, open the coin — with nothing shared with any
    other replica (a TCP replica's view; the simulator's replicas share
    one accelerator, so there ``H(C)``'s ladder is built once for all).
    Beside it, the same party with the coin's base laddered off and the
    opening by Lagrange coefficients mod q.  Caches that a running
    replica has warm are warmed first.  Best of three, ms, and the
    exponentiations of one run by kind: full-size built-in ``pow``s,
    ladder builds and climbs, fixed-base table pows, and the squarings
    of every Straus chain."""
    n, t = 4, 1
    kinds = {}
    pow_, ladder_pow, table_pow, straus = (
        pow, accel.Ladder.pow, accel.FixedBaseTable.pow, accel._straus,
    )

    def counting_pow(base, exponent, modulus=None):
        kinds["pow"] += exponent.bit_length() > 192
        return pow_(base, exponent, modulus)

    def counting_ladder(ladder, exponent):
        rungs = len(ladder.rungs)
        result = ladder_pow(ladder, exponent)
        kinds["ladder build" if len(ladder.rungs) > rungs + 1 else "ladder climb"] += 1
        return result

    def counting_table(table, exponent):
        kinds["table"] += 1
        return table_pow(table, exponent)

    def counting_straus(modulus, pairs):
        kinds["chain bits"] += max(e.bit_length() for _, e in pairs)
        return straus(modulus, pairs)

    rows = []

    def measure():
        rows.clear()
        for group in (default_group(), modp_1536_group()):
            for path in ("ladder, Δ-scaled opening", "no ladder, Lagrange opening"):
                rows.append(_one_replicas_coin(group, path))

    def _one_replicas_coin(group, path):
        public, holders = _coin(n, t, group)
        group_accel = accel.accel_for(group)
        flips = iter(range(1_000))

        def one_coin():
            name = ("E8", path, next(flips))
            others = [holders[i].share_for(name, random.Random(i)) for i in range(1, t + 1)]
            group_accel._ladders.clear()  # the others' ladder is theirs
            kinds.update(dict.fromkeys(kinds, 0))  # count this party alone
            memo = VerifiedMemo()
            start = time.perf_counter()
            own = holders[0].share_for(name, random.Random(0), memo)
            valid = public.verify_shares(name, [own, *others], memo)
            public.combine(name, valid)
            return time.perf_counter() - start

        with monkeypatch.context() as patch:
            if path.startswith("no ladder"):
                patch.setattr(accel.GroupAccel, "add_ladder", lambda self, base: None)
                patch.setattr(SharedExponentPublic, "_recombine", _lagrange_recombine)
            one_coin()  # the holder's cached key images, as in a running cluster
            best = min(one_coin() for _ in range(3))
            kinds.update(dict.fromkeys(
                ("pow", "ladder build", "ladder climb", "table", "chain bits"), 0
            ))
            patch.setattr(accel, "pow", counting_pow, raising=False)
            patch.setattr(accel.Ladder, "pow", counting_ladder)
            patch.setattr(accel.FixedBaseTable, "pow", counting_table)
            patch.setattr(accel, "_straus", counting_straus)
            one_coin()
        return (
            f"{group.p.bit_length():>5}  {path:<28} {1e3 * best:>8.2f} "
            + " ".join(f"{count:>6}" for count in kinds.values())
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "One replica's coin (n=4, t=1): make, check t shares, open — ms and exponentiations",
        [f"{'bits':>5}  {'path':<28} {'ms':>8} {'pow':>6} {'build':>6} {'climb':>6} "
         f"{'table':>6} {'chain':>6}"] + rows,
    )


def test_consistency_versus_proofs(benchmark):
    """What a coin check costs by consistency in the exponent against its
    DLEQ proofs, n = 4, t = 1, shares new to the membership memo (as a
    fresh coin's are): the robust set of 2t + 1 = 3 shares checked by
    ``consistent`` (a Jacobi test per value and one relation of small
    exponents), beside the proof batch of the t + 1 = 2 shares a coin
    opened with before and of the same 3 shares.  Best of five, ms."""
    n, t = 4, 1
    rows = []

    def measure():
        rows.clear()
        for group in (default_group(), modp_1536_group()):
            public, holders = _coin(n, t, group)
            group_accel = accel.accel_for(group)
            name = ("E8", "consistency")
            shares = {i: holders[i].share_for(name, random.Random(i)) for i in range(2 * t + 1)}
            fresh_values = [
                value
                for share in shares.values()
                for proof_and_value in zip(share.proofs.values(), share.values.values())
                for value in (proof_and_value[0].commit1, proof_and_value[0].commit2,
                              proof_and_value[1])
            ]

            def fresh(check):
                for value in fresh_values:
                    group_accel._members.pop(value, None)
                assert check()

            def proofs(k):
                fresh(lambda: len(public.verify_shares(name, list(shares.values())[:k])) == k)

            proofs(2 * t + 1)  # the keys' tables grown to the exponents they meet
            costs = [
                best_of(lambda: fresh(lambda: public.consistent(shares)), 5),
                best_of(lambda: proofs(t + 1), 5),
                best_of(lambda: proofs(2 * t + 1), 5),
            ]
            rows.append(
                f"{group.p.bit_length():>5}  " + " ".join(f"{1e3 * c:>12.2f}" for c in costs)
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "A coin check (n=4, t=1): consistency of 2t+1 shares vs DLEQ proof batches, ms",
        [f"{'bits':>5}  {'consistent 3':>12} {'proofs 2':>12} {'proofs 3':>12}"] + rows,
    )


def test_single_versus_batch_crossover(benchmark):
    """What one Schnorr signature costs to verify alone and inside a
    batch of k, per signature, with every key tabled (as it is from the
    moment the key bundle is assembled) and every commitment new to the
    membership memo (as a fresh signature is): the number that decides
    which checks are merged into a batch and which stay single.  A batch
    pays a Jacobi membership test per commitment and its coefficients;
    the single check pays a full-size ``g`` exponentiation per signature."""
    sizes = (2, 3, 4, 8)
    rows = []

    def measure():
        rows.clear()
        for group in (default_group(), modp_1536_group()):
            rng = random.Random(12)
            group_accel = accel.accel_for(group)
            signers = [keygen(rng, group) for _ in range(max(sizes))]
            items = [
                (key.verify_key, ("E8", i), key.sign(("E8", i), rng))
                for i, key in enumerate(signers)
            ]
            for verify_key, _m, _s in items:
                group_accel.add_table(verify_key.h)

            def fresh(check):
                for _k, _m, signature in items:
                    group_accel._members.pop(signature.commit, None)
                assert check()

            def single():
                fresh(lambda: all(key.verify(m, s) for key, m, s in items))

            def batch(k):
                fresh(lambda: verify_batch(group, items[:k]))

            single()  # grows the key tables to the exponents they meet
            batch(max(sizes))
            costs = [best_of(single, 5) / len(items)]
            costs += [best_of(lambda k=k: batch(k), 5) / k for k in sizes]
            rows.append(
                f"{group.p.bit_length():>5}  " + " ".join(f"{1e6 * c:>8.0f}" for c in costs)
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "Schnorr verification per signature, single vs batch of k (keys tabled), µs",
        [f"{'bits':>5}  {'single':>8} " + " ".join(f"{'k=' + str(k):>8}" for k in sizes)]
        + rows,
    )


def test_generator_table(benchmark):
    """One full-size exponentiation of the generator ``g`` on a radix-2⁶
    digit table and on the Lim–Lee comb that ``GroupAccel`` gives it from
    1,024 bits of |q| on: µs per power (best of five, over the same
    eight random exponents), entries held, and ms to build the table."""
    rows = []

    def measure():
        rows.clear()
        for group in (default_group(), modp_1536_group()):
            bits = group.q.bit_length()
            rng = random.Random(13)
            exponents = [rng.randrange(group.q) for _ in range(8)]
            for comb in (False, True):
                table = accel.FixedBaseTable(group.g, group.p, bits, comb=comb)
                start = time.perf_counter()
                table.pow(group.q - 1)  # builds the whole table
                build = time.perf_counter() - start
                entries = sum(map(len, table.comb or table.windows))
                power = best_of(lambda t=table: [t.pow(e) for e in exponents], 5) / 8
                assert table.pow(exponents[0]) == pow(group.g, exponents[0], group.p)
                rows.append(
                    f"{group.p.bit_length():>5}  {'comb' if comb else 'radix':<6} "
                    f"{1e6 * power:>8.0f} {entries:>8} {1e3 * build:>8.1f}"
                )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "One full-size exponentiation of g: radix table vs comb",
        [f"{'bits':>5}  {'table':<6} {'µs':>8} {'entries':>8} {'build ms':>8}"] + rows,
    )
