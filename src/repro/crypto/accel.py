"""Crypto hot-path acceleration: multi-exp, fixed-base tables, memoized checks.

Modular exponentiation dominates the wall-clock of the whole stack —
every ABBA round verifies a quorum of DLEQ-proved coin shares, every
broadcast verifies signature shares (the SecureSMART cost profile).
This module concentrates the arithmetic tricks that cut that cost:

* **Simultaneous multi-exponentiation** (Straus/Shamir interleaved
  windows): ``Π bᵢ^eᵢ`` in one shared-squaring pass, so a product of
  ``k`` exponentiations costs one squaring chain plus a few
  multiplications per base instead of ``k`` full ``pow`` calls.
* **Fixed-base windowed tables**: bases that recur (the group
  generator, verification keys, TDH2's ``h`` and ``ḡ``, the PKI's
  identity keys) get a radix-``2^w`` digit table; subsequent
  exponentiations are ~5x cheaper than ``pow``.  A base gets one
  because its owner declares it recurs (:meth:`GroupAccel.add_table`,
  where the keys are assembled), never by counting uses; tables grow
  only as tall as the exponents the base meets (a verification key
  meets 128-bit challenges, not |q| bits), and the least recently used
  one makes room when the budget is full.
* **Squaring ladders** for a statement's base (a coin's ``H(C)``): built
  for a ``pow``'s cost, each use a quarter of one — repaid on the second
  use, where a table needs many (:meth:`GroupAccel.add_ladder`).
* **Memoized subgroup membership** via the Jacobi symbol (for a safe
  prime the order-``q`` subgroup is exactly the quadratic residues),
  with a bounded cache so fixed bases are checked once, ever.
* **Batched equation checking** by small-exponent random linear
  combination: ``k`` equations ``Π lhsᵢ == Π rhsᵢ`` collapse into one
  multi-exp identity, with soundness error ``2^-λ`` (λ = 64 by
  default).  Coefficients are derived by Fiat-Shamir hashing of the
  full transcript, keeping verification deterministic and replayable —
  a requirement of the simulator (lint rule RL003) that also yields the
  standard random-oracle soundness argument: the prover must commit to
  the batch before the coefficients are known.

See docs/PERFORMANCE.md for the invariant each technique rests on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .numtheory import jacobi

__all__ = [
    "FixedBaseTable",
    "GroupAccel",
    "accel_for",
    "multiexp",
    "batch_coefficients",
    "verify_product_equations",
]

# Bound every internal cache so adversarial traffic cannot balloon memory.
_MAX_TABLES = 96
_MAX_MEMBERS = 8192

# Ladders held at once.  A statement's base needs one from its first
# share to its last checked one: per replica, one permutation coin per
# agreement round in flight, the vote's current coin, and the ``u`` of
# each confidential request a delivered round is decrypting (the
# simulator's replicas share them: same names).  Eight covers the coins;
# a round with more ciphertexts evicts the least recently added, and an
# evicted base costs one ``pow`` to rebuild — what it cost without a
# ladder (docs/PERFORMANCE.md measures twelve in flight).  A 1,536-bit
# ladder is 308 rungs of 192 bytes, so the budget is ≈ 0.5 MB.
_MAX_LADDERS = 8
_LADDER_WIDTH = 5
_LADDER_MASK = (1 << _LADDER_WIDTH) - 1

# Window width for the interleaved (Straus) multi-exponentiation.
_STRAUS_WIDTH = 4
_STRAUS_MASK = (1 << _STRAUS_WIDTH) - 1


class FixedBaseTable:
    """Radix-``2^w`` digit table for repeated powers of one base.

    ``windows[i][j-1] = base^(j << (i*w)) mod p`` — an exponentiation is
    then a product of one table entry per nonzero digit: no squarings.

    Rows are built when an exponent first reaches them, up to ``bits``:
    the table is as tall as the largest exponent its base has met.  The
    generator meets full-size responses at once; a verification key
    meets 128-bit challenges and 192-bit batched terms and stops at a
    fifth of the height (docs/PERFORMANCE.md).
    """

    __slots__ = ("base", "modulus", "width", "mask", "windows", "capacity", "_next")

    def __init__(self, base: int, modulus: int, bits: int, width: int = 6) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self.width = width
        self.mask = (1 << width) - 1
        self.capacity = bits
        self.windows: list[list[int]] = []
        self._next = self.base  # base^(2^(w * len(windows)))

    def _grow(self, rows: int) -> None:
        modulus = self.modulus
        windows = self.windows
        cur = self._next
        while len(windows) < rows:
            row = [cur]
            entry = cur
            for _ in range(2, 1 << self.width):
                entry = entry * cur % modulus
                row.append(entry)
            windows.append(row)
            cur = entry * cur % modulus  # base^(2^w << shift)
        self._next = cur

    def pow(self, exponent: int) -> int:
        bits = exponent.bit_length()
        if bits > self.capacity:  # caller failed to reduce
            return pow(self.base, exponent, self.modulus)
        width = self.width
        windows = self.windows
        if bits > width * len(windows):
            self._grow((bits + width - 1) // width)
        acc = 1
        idx = 0
        mod = self.modulus
        mask = self.mask
        while exponent:
            digit = exponent & mask
            if digit:
                entry = windows[idx][digit - 1]
                acc = entry if acc == 1 else acc * entry % mod
            exponent >>= width
            idx += 1
        return acc % mod


class Ladder:
    """``rungs[i] = base^(2^(w·i)) mod p``, as tall as the exponents met
    (a ``pow``'s squarings); a power is then Yao's bucket method: one
    multiplication per digit, ``2·2^w`` more, no squarings."""

    __slots__ = ("modulus", "rungs")

    def __init__(self, base: int, modulus: int) -> None:
        self.modulus = modulus
        self.rungs = [base % modulus]

    def pow(self, exponent: int) -> int:
        mod, rungs = self.modulus, self.rungs
        while len(rungs) * _LADDER_WIDTH < exponent.bit_length():
            rungs.append(pow(rungs[-1], 1 << _LADDER_WIDTH, mod))  # w squarings
        buckets = [1] * (_LADDER_MASK + 1)
        for rung in rungs:
            if not exponent:
                break
            digit = exponent & _LADDER_MASK
            buckets[digit] = buckets[digit] * rung % mod
            exponent >>= _LADDER_WIDTH
        acc = running = 1
        for bucket in buckets[:0:-1]:  # running = Π of the buckets from d up
            running = running * bucket % mod
            acc = acc * running % mod
        return acc


def multiexp(modulus: int, pairs: Iterable[tuple[int, int]]) -> int:
    """``Π base^exp mod modulus`` in one interleaved-window pass.

    Exponents must be nonnegative; callers working in a known-order
    group should reduce them first (smaller exponents mean fewer shared
    squarings — the small-exponent batching trick relies on this).
    """
    live = [(b % modulus, e) for b, e in pairs if e > 0]
    if not live:
        return 1 % modulus
    return _straus(modulus, live)


def _straus(modulus: int, pairs: Sequence[tuple[int, int]]) -> int:
    tables: list[tuple[list[int], int]] = []
    max_bits = 0
    for base, exponent in pairs:
        row = [base]
        entry = base
        for _ in range(2, 1 << _STRAUS_WIDTH):
            entry = entry * base % modulus
            row.append(entry)
        tables.append((row, exponent))
        bits = exponent.bit_length()
        if bits > max_bits:
            max_bits = bits
    acc = 1
    for shift in range(
        (max_bits + _STRAUS_WIDTH - 1) // _STRAUS_WIDTH * _STRAUS_WIDTH - _STRAUS_WIDTH,
        -1,
        -_STRAUS_WIDTH,
    ):
        if acc != 1:
            for _ in range(_STRAUS_WIDTH):
                acc = acc * acc % modulus
        for row, exponent in tables:
            digit = (exponent >> shift) & _STRAUS_MASK
            if digit:
                entry = row[digit - 1]
                acc = entry if acc == 1 else acc * entry % modulus
    return acc


class GroupAccel:
    """Per-group accelerator: tables, membership memo, multi-exp.

    One instance exists per distinct ``(p, q, g)`` (see :func:`accel_for`);
    all schemes over the same group share its caches, so verification
    keys tabled by the coin also speed up e.g. TDH2 share checks.
    """

    __slots__ = ("p", "q", "g", "_tables", "_members", "_ladders")

    def __init__(self, p: int, q: int, g: int) -> None:
        self.p = p
        self.q = q
        self.g = g
        self._tables: dict[int, FixedBaseTable] = {}
        self._members: dict[int, bool] = {}
        self._ladders: dict[int, Ladder] = {}
        # The generator is exponentiated constantly: tabled from the
        # start (full-height at its first full-size exponent), never evicted.
        self._tables[g] = FixedBaseTable(g, p, q.bit_length())

    # -- exponentiation --------------------------------------------------

    def _table(self, base: int) -> FixedBaseTable | None:
        """The base's table, marked most recently used."""
        tables = self._tables
        table = tables.get(base)
        if table is not None and base != self.g:
            # Dicts iterate in insertion order: re-inserting on use keeps
            # the least recently used table first (the generator is not
            # rotated: it is pinned, see _evict).
            del tables[base]
            tables[base] = table
        return table

    def _evict(self) -> None:
        """Drop the least recently used table; the generator stays."""
        for base in self._tables:
            if base != self.g:
                del self._tables[base]
                return

    def exp(self, base: int, exponent: int) -> int:
        """``base^exponent mod p``: by the base's table if it was given
        one, else by its ladder, else by ``pow``."""
        if exponent < 0:  # else the answer would depend on how base is held
            raise ValueError("negative exponent: reduce it mod q first")
        table = self._table(base) or self._ladders.get(base)
        return pow(base, exponent, self.p) if table is None else table.pow(exponent)

    def add_table(self, base: int) -> FixedBaseTable:
        """The base's table, made now for a base its owner knows recurs."""
        table = self._table(base)
        if table is None:
            if len(self._tables) >= _MAX_TABLES:
                self._evict()
            table = self._tables[base] = FixedBaseTable(base, self.p, self.q.bit_length())
        return table

    def add_ladder(self, base: int) -> None:
        """Give a statement's base (a coin's ``H(C)``, a ciphertext's
        ``u``) a :class:`Ladder` for :meth:`exp` and :meth:`multiexp`,
        the least recently added making room.  A share value never gets
        one."""
        ladder = self._ladders.pop(base, None) or Ladder(base, self.p)
        if len(self._ladders) >= _MAX_LADDERS:
            del self._ladders[next(iter(self._ladders))]
        self._ladders[base] = ladder

    def multiexp(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Multi-exp that routes tabled and laddered bases through them.

        The tables are not widened: the generator's full-height
        table is ~16k multiplications (~150 ms, 3.7 MB) at 1536 bits, and
        a wider one breaks the benchmark's 10 % ``peak_rss_mb`` bound
        (docs/PERFORMANCE.md).  Negative exponents (an opening's ``μ``):
        their terms are multiplied up apart and inverted once.
        """
        acc = 1
        plain: list[tuple[int, int]] = []
        negative: list[tuple[int, int]] = []
        for base, exponent in pairs:
            if exponent < 0:
                negative.append((base, -exponent))
            elif exponent:
                table = self._table(base) or self._ladders.get(base)
                if table is None:
                    plain.append((base % self.p, exponent))
                else:
                    acc = acc * table.pow(exponent) % self.p
        if plain:
            acc = acc * _straus(self.p, plain) % self.p
        if negative:
            acc = acc * pow(self.multiexp(negative), -1, self.p) % self.p
        return acc

    # -- membership ------------------------------------------------------

    def is_member(self, a: int) -> bool:
        """Memoized subgroup membership (Jacobi symbol, see numtheory)."""
        if not 0 < a < self.p:
            return False
        cached = self._members.get(a)
        if cached is None:
            cached = jacobi(a, self.p) == 1
            if len(self._members) >= _MAX_MEMBERS:
                self._members.clear()
            self._members[a] = cached
        return cached


_ACCELS: dict[tuple[int, int, int], GroupAccel] = {}


def accel_for(group) -> GroupAccel:  # group: SchnorrGroup (duck-typed, no cycle)
    """The shared accelerator for a Schnorr group (keyed by parameters)."""
    key = (group.p, group.q, group.g)
    accel = _ACCELS.get(key)
    if accel is None:
        if len(_ACCELS) > 64:  # long test runs generate many tiny groups
            _ACCELS.clear()
        accel = GroupAccel(*key)
        _ACCELS[key] = accel
    return accel


# -- batched equation checking ----------------------------------------------


def batch_coefficients(domain: str, transcript: object, count: int, bits: int = 64) -> list[int]:
    """Deterministic small batching exponents bound to the transcript.

    Fiat-Shamir in the random-oracle model: the prover fixes every
    element of the batch before the coefficients exist, so a batch
    containing one bad equation survives with probability ``~2^-bits``.
    """
    from .hashing import hash_bytes, hash_to_int  # local: hashing imports groups

    seed = hash_bytes(domain + "-seed", tuple(transcript))
    return [
        hash_to_int(domain + "-coeff", seed, i, bits=bits) or 1 for i in range(count)
    ]


def verify_product_equations(
    modulus: int,
    equations: Sequence[tuple[Sequence[tuple[int, int]], Sequence[tuple[int, int]]]],
    coefficients: Sequence[int],
    order: int | None = None,
    square: bool = False,
    accel: GroupAccel | None = None,
) -> bool:
    """Check ``Π lhsᵢ == Π rhsᵢ`` for every equation via one multi-exp.

    Each equation is ``(lhs_pairs, rhs_pairs)`` of ``(base, exponent)``
    terms.  Equation ``i`` is raised to ``coefficients[i]`` and all
    equations are multiplied together; exponents of repeated bases are
    accumulated.

    With the group ``order`` known the left side moves across, its
    exponents negated mod ``order``, and **one** multi-exp is compared
    with 1: one squaring chain instead of two.  Only the left side is
    negated — the commitments sit on the right with nothing but their
    64-bit coefficient, and negating those would turn every small
    exponent into a full-size one.  Mod an RSA modulus the order is
    hidden, nothing can be negated, and the two sides stay two products
    over the integers.

    ``accel`` is the accelerator of the Schnorr group the equations live
    in: the product is then evaluated by :meth:`GroupAccel.multiexp`, so
    the generator and every tabled verification key cost a table lookup
    per digit and only the one-shot bases (commitments, share values)
    share the squaring chain.  An RSA modulus has no accelerator and
    takes the table-less :func:`multiexp`.

    ``square=True`` compares the squares of both sides, quotienting out
    the order-2 subgroup ``{±1}`` — required mod an RSA modulus where
    membership in the squares cannot be tested directly.
    """
    rhs_acc: dict[int, int] = {}
    lhs_acc, sign = (rhs_acc, -1) if order is not None else ({}, 1)
    for (lhs, rhs), coeff in zip(equations, coefficients):
        for base, exponent in lhs:
            lhs_acc[base] = lhs_acc.get(base, 0) + sign * exponent * coeff
        for base, exponent in rhs:
            rhs_acc[base] = rhs_acc.get(base, 0) + exponent * coeff
    product = accel.multiexp if accel is not None else lambda pairs: multiexp(modulus, pairs)
    if order is not None:
        left, right = 1, product([(b, e % order) for b, e in rhs_acc.items()])
    else:
        left, right = product(lhs_acc.items()), product(rhs_acc.items())
    if square:
        return left * left % modulus == right * right % modulus
    return left == right
