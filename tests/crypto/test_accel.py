"""Acceleration primitives agree exactly with the naive computations."""

import random

import pytest
from bench.workloads import modp_1536_group

from repro.crypto import accel as accel_module
from repro.crypto.accel import (
    FixedBaseTable,
    GroupAccel,
    Ladder,
    accel_for,
    batch_coefficients,
    multiexp,
    verify_product_equations,
)
from repro.crypto.coin import CoinShare, deal_coin
from repro.crypto.dealer import deal_system
from repro.crypto.groups import default_group, small_group
from repro.crypto.lsss import threshold_scheme
from repro.crypto.schnorr import keygen, verify_batch
from repro.crypto.threshold_enc import deal_encryption, second_generator
from repro.crypto.zkp import prove_dleq
from repro.net.scheduler import FifoScheduler
from repro.smr.service import build_service
from repro.smr.state_machine import KeyValueStore

GROUP = small_group()


def test_multiexp_matches_naive_product():
    rng = random.Random(1)
    p, q = GROUP.p, GROUP.q
    for size in (0, 1, 2, 3, 8, 17):
        pairs = [
            (GROUP.random_element(rng), rng.randrange(q)) for _ in range(size)
        ]
        naive = 1
        for base, exponent in pairs:
            naive = naive * pow(base, exponent, p) % p
        assert multiexp(p, pairs) == naive


def test_multiexp_handles_zero_and_large_exponents():
    p = GROUP.p
    pairs = [(GROUP.g, 0), (GROUP.g, 2 * GROUP.q + 3), (5, 1)]
    naive = pow(GROUP.g, 2 * GROUP.q + 3, p) * 5 % p
    assert multiexp(p, pairs) == naive


def test_fixed_base_table_matches_pow():
    rng = random.Random(2)
    table = FixedBaseTable(GROUP.g, GROUP.p, bits=GROUP.q.bit_length())
    for _ in range(25):
        e = rng.randrange(GROUP.q)
        assert table.pow(e) == pow(GROUP.g, e, GROUP.p)
    for e in (0, 1, GROUP.q - 1):
        assert table.pow(e) == pow(GROUP.g, e, GROUP.p)


def test_fixed_base_table_falls_back_beyond_capacity():
    table = FixedBaseTable(GROUP.g, GROUP.p, bits=16)
    huge = GROUP.q + 12345
    assert table.pow(huge) == pow(GROUP.g, huge, GROUP.p)


def _rows(bits, width=6):
    return (bits + width - 1) // width


@pytest.mark.parametrize("group", [GROUP, default_group()], ids=["64", "256"])
def test_fixed_base_table_grows_to_any_exponent_in_any_order(group):
    """Rows are built when an exponent first reaches them: whatever the
    order of sizes, every answer is ``pow``'s."""
    rng = random.Random(12)
    bits = group.q.bit_length()
    base = group.random_element(rng)
    sizes = [0, 1, 5, 6, 7, 12, 13, bits - 1, bits] + [rng.randrange(bits + 1) for _ in range(40)]
    rng.shuffle(sizes)
    table = FixedBaseTable(base, group.p, bits=bits)
    for size in sizes:
        e = rng.getrandbits(size) | (1 << size >> 1) if size else 0
        assert e.bit_length() == size
        assert table.pow(e) == pow(base, e, group.p)
        assert len(table.windows) <= _rows(bits)


def test_fixed_base_table_is_as_tall_as_the_exponents_it_has_met():
    group = modp_1536_group()
    bits = group.q.bit_length()
    table = FixedBaseTable(group.g, group.p, bits=bits)
    assert table.windows == []  # building a table costs nothing until used
    challenge, batched = (1 << 128) - 1, (1 << 192) - 1
    assert table.pow(challenge) == pow(group.g, challenge, group.p)
    assert len(table.windows) == _rows(128) == 22
    assert table.pow(batched) == pow(group.g, batched, group.p)
    assert len(table.windows) == _rows(192) == 32
    assert table.pow(challenge) == pow(group.g, challenge, group.p)  # never shrinks
    assert len(table.windows) == 32
    # An exponent over the ceiling is answered by pow and builds nothing.
    assert table.pow(group.p) == pow(group.g, group.p, group.p)
    assert len(table.windows) == 32
    assert table.pow(group.q - 1) == pow(group.g, group.q - 1, group.p)
    assert len(table.windows) == _rows(bits) == 256
    assert all(len(row) == 63 for row in table.windows)


def test_a_budget_of_key_tables_is_a_sixth_of_a_budget_of_full_ones(monkeypatch):
    """What ``_MAX_TABLES`` bounds: verification keys meet 128-bit
    challenges (``exp``) and 192-bit batched terms (``multiexp``), so a
    full budget of their tables holds under a sixth of the entries the
    same number of full-height tables would (1,536 bits: 32 of 256 rows)."""
    monkeypatch.setattr(accel_module, "_MAX_TABLES", 4)  # the ratio, not 96 builds
    group = modp_1536_group()
    rng = random.Random(13)
    accel = GroupAccel(group.p, group.q, group.g)
    for _ in range(accel_module._MAX_TABLES + 2):  # past the budget: the oldest go
        key = pow(group.g, rng.randrange(1, group.q), group.p)
        accel.add_table(key)
        for _ in range(16):
            c = rng.getrandbits(128)
            assert accel.exp(key, c) == pow(key, c, group.p)
        term = rng.getrandbits(192)
        assert accel.multiexp([(key, term)]) == pow(key, term, group.p)
    assert len(accel._tables) == accel_module._MAX_TABLES
    held = sum(
        len(row)
        for base, table in accel._tables.items()
        if base != group.g
        for row in table.windows
    )
    full = accel._tables[group.g]
    assert full.windows == []  # this accelerator's generator was never used
    full.pow(group.q - 1)
    full_height = sum(len(row) for row in full.windows)
    assert 0 < held < (accel_module._MAX_TABLES - 1) * full_height / 6


def test_server_keys_are_tabled_when_the_bundle_is_assembled():
    """Declared, not counted: every server key and TDH2's ``h`` and
    ``ḡ`` have their table before any of them is used."""
    group = small_group()
    accel = accel_for(group)
    accel._tables.pop(second_generator(group), None)
    keys = deal_system(4, random.Random(14), t=1, group=group)
    encryption = keys.public.encryption
    for base in (*(key.h for key in keys.public.verify_keys.values()),
                 encryption.h, encryption.g_bar):
        assert accel._tables[base].windows == []  # tabled, never used
    assert accel._tables[group.g] is accel.add_table(group.g)


def test_key_tables_stay_short_after_a_production_size_round():
    """A server key meets 128-bit challenges and batched terms of a
    64-bit coefficient times a challenge, summed per key over a batch:
    after one round at 1,536 bits its table is at most 33 rows of the
    256 a full-size exponent would build (none, for a key whose
    signatures no check read in this round)."""
    group = modp_1536_group()
    service = build_service(
        4, KeyValueStore, t=1, seed=15, scheduler=FifoScheduler(), group=group
    )
    client = service.new_client()
    service.network.start()
    service.run_until_complete(client, [client.submit(("set", "key", 1))])
    service.network.run()
    tables = accel_for(group)._tables
    rows = [len(tables[key.h].windows) for key in service.keys.public.verify_keys.values()]
    assert 22 <= max(rows) <= 33


def test_accel_exp_matches_pow_for_tabled_laddered_and_plain_bases():
    """However a base is held, ``exp`` answers ``pow``; and using a base,
    however often, never gives it a table or a ladder."""
    rng = random.Random(3)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    tabled, laddered, plain = (GROUP.random_element(rng) for _ in range(3))
    accel.add_table(tabled)
    accel.add_ladder(laddered)
    for _ in range(40):
        for base in (GROUP.g, tabled, laddered, plain):
            e = rng.randrange(GROUP.q)
            assert accel.exp(base, e) == pow(base, e, GROUP.p)
    assert set(accel._tables) == {GROUP.g, tabled}
    assert set(accel._ladders) == {laddered}


def test_accel_membership_matches_exponent_test():
    rng = random.Random(4)
    accel = accel_for(GROUP)
    for _ in range(20):
        member = GROUP.random_element(rng)
        assert accel.is_member(member)
        assert pow(member, GROUP.q, GROUP.p) == 1
    # A quadratic non-residue is outside the order-q subgroup.
    non_member = GROUP.p - 1
    assert not accel.is_member(non_member)
    assert pow(non_member, GROUP.q, GROUP.p) != 1
    assert not accel.is_member(0)
    assert not accel.is_member(GROUP.p)


def test_batch_coefficients_deterministic_and_nonzero():
    transcript = [GROUP.p, GROUP.g, 123, 456]
    a = batch_coefficients("test-domain", transcript, 5)
    b = batch_coefficients("test-domain", transcript, 5)
    assert a == b
    assert len(a) == 5
    assert all(0 < c < (1 << 64) for c in a)
    assert batch_coefficients("other-domain", transcript, 5) != a
    assert batch_coefficients("test-domain", [GROUP.p, GROUP.g, 123, 457], 5) != a


def test_verify_product_equations_true_and_false():
    rng = random.Random(5)
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    x = rng.randrange(1, q)
    h = pow(g, x, p)
    # Two true Schnorr-style equations g^z = a * h^c.
    equations = []
    for _ in range(2):
        r, c = rng.randrange(1, q), rng.randrange(1, q)
        a = pow(g, r, p)
        z = (r + c * x) % q
        equations.append((((g, z),), ((a, 1), (h, c))))
    coefficients = [3, 5]
    assert verify_product_equations(p, equations, coefficients, order=q)
    lhs, rhs = equations[0]
    broken = [(lhs, ((rhs[0][0] * g % p, 1), rhs[1])), equations[1]]
    assert not verify_product_equations(p, broken, coefficients, order=q)


def test_verify_product_equations_through_tables_equals_table_less():
    """Routing a batch through the group's tables changes its cost, not
    its verdict: tabled bases, untabled bases and zero exponents."""
    rng = random.Random(6)
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    accel = GroupAccel(p, q, g)
    tabled = GROUP.random_element(rng)
    accel.add_table(tabled)
    for trial in range(40):
        x = rng.randrange(1, q)
        equations = []
        for _ in range(rng.randrange(1, 5)):
            # g^z = a · h^c over a tabled or an untabled key h, with the
            # occasional zero challenge or zero response.
            base = tabled if rng.randrange(2) else GROUP.random_element(rng)
            h = pow(base, x, p)
            r = rng.randrange(1, q)
            c = rng.choice((0, rng.randrange(1, q)))
            z = 0 if rng.randrange(8) == 0 else (r + c * x) % q
            a = pow(base, (z - c * x) % q, p)
            equations.append((((base, z),), ((a, 1), (h, c))))
        if trial % 2:  # break one equation
            lhs, rhs = equations[0]
            equations[0] = (lhs, ((rhs[0][0] * g % p, 1), rhs[1]))
        coefficients = [rng.getrandbits(64) or 1 for _ in equations]
        plain = verify_product_equations(p, equations, coefficients, order=q)
        assert plain == (trial % 2 == 0)
        assert (
            verify_product_equations(p, equations, coefficients, order=q, accel=accel)
            == plain
        )


def test_table_budget_is_not_eaten_by_one_shot_bases():
    """200 transient bases used sixteen times each build no table; a
    base declared after them — a joiner's verify key after hundreds of
    coins — gets its table, and the number of tables never passes the
    budget."""
    rng = random.Random(7)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    for _ in range(200):
        transient = GROUP.random_element(rng)
        for _ in range(16):
            accel.exp(transient, rng.randrange(GROUP.q))
    assert set(accel._tables) == {GROUP.g}
    late = GROUP.random_element(rng)
    accel.add_table(late)
    for _ in range(3):
        e = rng.randrange(GROUP.q)
        assert accel.exp(late, e) == pow(late, e, GROUP.p)
    # Least recently *used*, not oldest: a table still in use survives a
    # further budget's worth of declared ones, and the generator is
    # never the victim.
    for _ in range(accel_module._MAX_TABLES):
        accel.exp(late, 5)
        accel.add_table(GROUP.random_element(rng))
        assert len(accel._tables) <= accel_module._MAX_TABLES
    assert late in accel._tables
    assert GROUP.g in accel._tables


def test_negative_exponent_is_rejected_whether_or_not_the_base_is_tabled():
    """The same input must not answer an inverse power for an untabled
    base and an ``IndexError`` for a tabled one."""
    rng = random.Random(8)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    untabled = GROUP.random_element(rng)
    for base in (GROUP.g, untabled):
        assert (base in accel._tables) == (base == GROUP.g)
        with pytest.raises(ValueError):
            accel.exp(base, -1)
    with pytest.raises(ValueError):
        accel_for(default_group()).exp(default_group().g, -1)


def _schnorr_equations(rng, count):
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    equations = []
    for _ in range(count):
        x, r, c = (rng.randrange(1, q) for _ in range(3))
        equations.append((((g, (r + c * x) % q),), ((pow(g, r, p), 1), (pow(g, x, p), c))))
    return equations


def test_known_order_takes_one_chain_hidden_order_two_products(monkeypatch):
    rng = random.Random(9)
    chains = []
    straus = accel_module._straus

    def counting_straus(modulus, pairs):
        chains.append(list(pairs))
        return straus(modulus, pairs)

    monkeypatch.setattr(accel_module, "_straus", counting_straus)
    equations = _schnorr_equations(rng, 3)
    coefficients = [rng.getrandbits(64) or 1 for _ in equations]
    assert verify_product_equations(GROUP.p, equations, coefficients, order=GROUP.q)
    assert len(chains) == 1
    # Every base of both sides rides that chain; the commitments keep
    # the bare 64-bit coefficient (negating the right side instead would
    # make each of them a full-size exponent).
    exponents = dict(chains[0])
    assert set(exponents) == {b for lhs, rhs in equations for b, _ in (*lhs, *rhs)}
    for (_, ((commit, _), _)), coeff in zip(equations, coefficients):
        assert exponents[commit] == coeff % GROUP.q  # a 63-bit toy group
    # Hidden order (an RSA modulus, compared squared): nothing can be
    # negated, so the two sides stay two products over the integers.
    del chains[:]
    assert verify_product_equations(GROUP.p, equations, coefficients, square=True)
    assert len(chains) == 2
    lhs_bases, rhs_bases = ({b for b, _ in chain} for chain in chains)
    assert lhs_bases == {GROUP.g} and GROUP.g not in rhs_bases
    lhs, rhs = equations[0]
    broken = [(lhs, ((rhs[0][0] * GROUP.g % GROUP.p, 1), rhs[1])), *equations[1:]]
    assert not verify_product_equations(GROUP.p, broken, coefficients, square=True)
    assert not verify_product_equations(GROUP.p, broken, coefficients, order=GROUP.q)


def test_a_base_on_both_sides_is_accumulated_once():
    """``g`` on the left and as a key (x = 1) on the right: one entry,
    the exponents netted mod q."""
    p, q, g = GROUP.p, GROUP.q, GROUP.g
    r, c = 12345, 678
    equation = (((g, (r + c) % q),), ((pow(g, r, p), 1), (g, c)))
    assert verify_product_equations(p, [equation], [7], order=q)
    assert verify_product_equations(p, [equation], [7], order=q, accel=accel_for(GROUP))
    off = (((g, (r + c + 1) % q),), equation[1])
    assert not verify_product_equations(p, [off], [7], order=q)


def test_a_dleq_batch_hands_commitments_to_the_chain_with_64_bit_exponents(monkeypatch):
    """The trap in moving one side across: on the 256-bit group the
    commitment bases must still carry at most their 64-bit coefficient,
    and the whole quorum check is one chain."""
    group = default_group()
    rng = random.Random(10)
    public, holders = deal_coin(group, threshold_scheme(4, 1, group.q), rng)
    shares = [holders[party].share_for("trap", rng) for party in range(3)]
    commitments = {
        commit
        for share in shares
        for proof in share.proofs.values()
        for commit in (proof.commit1, proof.commit2)
    }
    chains = []
    straus = accel_module._straus

    def counting_straus(modulus, pairs):
        chains.append(dict(pairs))
        return straus(modulus, pairs)

    monkeypatch.setattr(accel_module, "_straus", counting_straus)
    assert set(public.verify_shares("trap", shares)) == {0, 1, 2}
    assert len(chains) == 1
    assert commitments <= set(chains[0])
    assert max(chains[0][commit].bit_length() for commit in commitments) <= 64
    assert max(e.bit_length() for e in chains[0].values()) > 64  # the share values


def _recorded_multiexps(monkeypatch):
    """Every ``GroupAccel.multiexp`` call's terms, tabled bases included
    (``_straus`` sees only the untabled ones)."""
    calls = []
    multiexp_ = GroupAccel.multiexp

    def recording(self, pairs):
        pairs = list(pairs)
        calls.append(dict(pairs))
        return multiexp_(self, pairs)

    monkeypatch.setattr(GroupAccel, "multiexp", recording)
    return calls


def test_batched_key_and_share_terms_are_192_bits_and_only_g_and_the_base_full_size(
    monkeypatch,
):
    """A 128-bit challenge times a 64-bit coefficient: the verification
    keys and share values of a batch carry at most 192 bits, commitments
    64, and what stays full-size is what multiplies a response — the
    generator and, for DLEQ, the coin's base."""
    group = default_group()
    full = group.q.bit_length()
    assert full > 192
    rng = random.Random(14)
    calls = _recorded_multiexps(monkeypatch)

    keys = [keygen(rng, group) for _ in range(5)]
    items = [(key.verify_key, "statement", key.sign("statement", rng)) for key in keys]
    assert verify_batch(group, items)
    (terms,) = calls
    assert set(terms) == {group.g} | {k.verify_key.h for k in keys} | {s.commit for *_, s in items}
    assert max(terms[key.verify_key.h].bit_length() for key in keys) <= 192
    assert min(terms[key.verify_key.h].bit_length() for key in keys) > 64 + 128 - 16
    assert max(terms[sig.commit].bit_length() for *_, sig in items) <= 64
    assert {b for b, e in terms.items() if e.bit_length() > 192} == {group.g}

    del calls[:]
    public, holders = deal_coin(group, threshold_scheme(4, 1, group.q), rng)
    shares = [holders[party].share_for("width", rng) for party in range(3)]
    assert set(public.verify_shares("width", shares)) == {0, 1, 2}
    (terms,) = calls
    narrow = set(public.verification.values()) & set(terms)
    narrow |= {value for share in shares for value in share.values.values()}
    assert len(narrow) == 6
    assert max(terms[base].bit_length() for base in narrow) <= 192
    assert {b for b, e in terms.items() if e.bit_length() > 192} == {
        group.g, public.coin_base("width"),
    }
    assert min(terms[b].bit_length() for b in (group.g, public.coin_base("width"))) > full - 16


def test_culprit_fallback_tables_neither_the_coin_base_nor_a_share_value():
    """n = 16, one forged share per coin: the failed batch re-checks all
    sixteen shares one by one, and sixteen is the auto-tabling threshold
    — ``H(C)`` climbs its ladder there and the share values are
    exponentiated by ``pow``: neither gets a table, and no share value
    gets a ladder."""
    rng = random.Random(15)
    accel = accel_for(GROUP)
    public, holders = deal_coin(GROUP, threshold_scheme(16, 5, GROUP.q), rng)
    name = ("aba-coin", "forged")
    base = public.coin_base(name)
    shares = [holders[party].share_for(name, rng) for party in range(15)]
    # Party 15 proves knowledge of its key honestly (the first equation
    # holds) and lies about the value (the second does not).
    ((slot, x),) = holders[15].subshares.items()
    wrong = GROUP.mul(GROUP.exp(base, x), GROUP.g)
    proof = prove_dleq(
        GROUP, GROUP.g, base, x, rng, ("coin", name, slot), (GROUP.power_of_g(x), wrong)
    )
    shares.append(CoinShare(party=15, name=name, values={slot: wrong}, proofs={slot: proof}))
    assert set(public.verify_shares(name, shares)) == set(range(15))  # culprit named
    values = {wrong} | {v for share in shares for v in share.values.values()}
    assert not ({base} | values) & set(accel._tables)
    assert base in accel._ladders
    assert not values & set(accel._ladders)


def test_per_name_bases_never_earn_a_table():
    """A simulated n = 10 cluster shares one accelerator: ten parties
    exponentiate each coin's ``H(C)`` twice, twenty uses, and a
    ciphertext's ``u`` likewise — each gets a ladder, neither may build
    (or evict) a table; what is tabled stays the generator and the
    tabled keys, and a share value gets nothing."""
    rng = random.Random(11)
    accel = accel_for(GROUP)
    scheme = threshold_scheme(10, 3, GROUP.q)
    coin_public, coin_holders = deal_coin(GROUP, scheme, rng)
    enc_public, enc_holders = deal_encryption(GROUP, scheme, rng)
    tabled = set(accel._tables)
    statement_bases, per_name, values = set(), set(), set()
    for flip in range(3):
        name = ("aba-coin", flip)
        shares = [holder.share_for(name, rng) for holder in coin_holders.values()]
        coin_public.combine(name, coin_public.verify_shares(name, shares))
        ct = enc_public.encrypt(b"payload", b"label", rng)
        dec = [holder.decryption_share(ct, rng) for holder in enc_holders.values()]
        assert enc_public.combine(ct, enc_public.verify_shares(ct, dec)) == b"payload"
        statement_bases |= {coin_public.coin_base(name), ct.u}
        per_name |= {ct.u_bar}
        values |= {v for share in (*shares, *dec) for v in share.values.values()}
    assert 2 * 3 <= accel_module._MAX_LADDERS
    assert statement_bases <= set(accel._ladders)
    assert not (per_name | values) & set(accel._ladders)
    assert not (statement_bases | per_name | values) & set(accel._tables)
    # The service key and the second generator recur for good: they may.
    assert set(accel._tables) - tabled <= {enc_public.h, enc_public.g_bar}


@pytest.mark.parametrize("group", [GROUP, default_group()], ids=["64", "256"])
def test_ladder_matches_pow(group):
    """0, 1, q − 1, random exponents in any order, and one above the
    ladder's height (it grows): every answer is ``pow``'s."""
    rng = random.Random(16)
    base = group.random_element(rng)
    ladder = Ladder(base, group.p)
    exponents = [0, 1, group.q - 1] + [rng.randrange(group.q) for _ in range(30)]
    exponents += [rng.getrandbits(size) for size in (3, 5, 6, 64, 128)]
    for e in exponents:
        assert ladder.pow(e) == pow(base, e, group.p)
    height = len(ladder.rungs) * 5
    assert height >= group.q.bit_length()
    above = (1 << height) + 12345
    assert ladder.pow(above) == pow(base, above, group.p)
    assert len(ladder.rungs) * 5 > height
    assert Ladder(1, group.p).pow(group.q - 1) == 1


def test_a_laddered_base_answers_exp_and_multiexp_as_pow():
    rng = random.Random(17)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    base, other = GROUP.random_element(rng), GROUP.random_element(rng)
    accel.add_ladder(base)
    for _ in range(10):
        e, f = rng.randrange(GROUP.q), rng.randrange(GROUP.q)
        assert accel.exp(base, e) == pow(base, e, GROUP.p)
        assert accel.multiexp([(base, e), (other, f), (GROUP.g, f)]) == (
            pow(base, e, GROUP.p) * pow(other, f, GROUP.p) * pow(GROUP.g, f, GROUP.p) % GROUP.p
        )
    with pytest.raises(ValueError):
        accel.exp(base, -1)
    with pytest.raises(ValueError):
        accel.exp(other, -1)


def test_multiexp_takes_a_negative_exponent_as_an_inverse_power():
    """An opening's integer coefficients are signed: ``Π value^μ`` with
    the negative terms inverted once."""
    rng = random.Random(18)
    accel = GroupAccel(GROUP.p, GROUP.q, GROUP.g)
    pairs = [(GROUP.random_element(rng), rng.randrange(-(1 << 60), 1 << 60)) for _ in range(6)]
    pairs.append((GROUP.g, -3))
    naive = 1
    for base, e in pairs:
        naive = naive * pow(base, e, GROUP.p) % GROUP.p
    assert accel.multiexp(pairs) == naive
    assert accel.multiexp([(GROUP.g, -1), (GROUP.g, 1)]) == 1


def test_ten_thousand_coin_names_keep_the_ladders_at_their_budget():
    """Every coin name's base gets a ladder; the least recently used
    makes room, and the generator's and every key's table stay."""
    rng = random.Random(19)
    accel = accel_for(GROUP)
    public, holders = deal_coin(GROUP, threshold_scheme(4, 1, GROUP.q), rng)
    keys = set(public.verification.values())
    for key in keys:  # table the verification keys, as a running cluster does
        accel.add_table(key)
    holder = holders[0]
    for flip in range(10_000):
        share = holder.share_for(("aba-coin", flip), rng)
        if flip % 1000 == 0:
            assert public.verify_shares(("aba-coin", flip), [share]) == {0: share}
        assert len(accel._ladders) <= accel_module._MAX_LADDERS
    assert len(accel._ladders) == accel_module._MAX_LADDERS
    assert public.coin_base(("aba-coin", 9_999)) in accel._ladders
    assert {GROUP.g} | keys <= set(accel._tables)
