"""The residue-sieved scans against plain loops.

Each reference in `reference.py` walks the same canonical probe order as
its engine but takes an exact square root at every candidate, with no
residue filter.  The engines must agree with them on status, factors,
certificate and ops: the sieve may only skip work, never change an outcome
or a count.
"""

import bisect
import itertools
import math
import random

import numpy as np
import pytest

from conftest import random_prime, random_semiprime
from reference import (
    ref_classic,
    ref_extended_sparse,
    ref_offset_scan,
    ref_sparse_difference,
)
from sparsefactor import expansions, fermat, sparse_diff
from sparsefactor.arith import (
    SIEVE_BLOCK,
    SIEVE_MODULUS,
    SquareSieve,
    is_probable_prime,
)
from sparsefactor.model import SearchBudget

EX_N = 448316072600119


def _outcome(r):
    return r.status, r.factors, r.certificate, r.ops


def _random_odd_composite(rng):
    """Close, balanced, unbalanced and tiny odd composites."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_semiprime(rng, rng.choice((16, 24, 32, 40)),
                                max_gap=rng.choice((8, 1 << 10)))[0]
    if kind == 1:
        return random_semiprime(rng, rng.choice((16, 24, 32, 40)))[0]
    if kind == 2:
        return random_prime(rng, 8) * random_prime(rng, rng.choice((12, 20)))
    return rng.randrange(5, 400) * 2 + 1


# squares modulo 64, 63, 65 and 11: the filter's moduli before the CRT
# fuses them into 4032 and 715
_SMALL_SQUARES = {m: {r * r % m for r in range(m)} for m in (64, 63, 65, 11)}


def _sieve_predicate(c, x):
    return all((x * x - c) % m in squares
               for m, squares in _SMALL_SQUARES.items())


@pytest.mark.parametrize("c", [0, 1, 15, -4 * 10403, 4 * EX_N,
                               (1 << 200) + 12345, -(1 << 130) - 7])
def test_sieve_matches_residue_predicate(c):
    sieve = SquareSieve(c)
    x0 = (1 << 70) + 3 if abs(c) > 1 << 64 else 17
    want = [j for j in range(300) if _sieve_predicate(c, x0 + j)]
    assert list(sieve.ascending(x0, 300)) == want
    order = [x0 - 5 - j if i % 2 == 0 else x0 + 6 + j
             for j in range(150) for i in (0, 1)]
    want = [i for i, x in enumerate(order) if _sieve_predicate(c, x)]
    assert list(sieve.zigzag(x0, 5, 150)) == want
    xs = [x0 + 7919 * j for j in range(300)]
    mask = sieve.values(np.array([x % SIEVE_MODULUS for x in xs]))
    assert [bool(v) for v in mask] == [_sieve_predicate(c, x) for x in xs]
    # a full block from the last residue of a period reads up to the end of
    # that modulus' table: ascending from x = -1 (mod m), and the zigzag's
    # descending half from x = 1 (mod m)
    for m in (64 * 63, 65 * 11):
        x1 = x0 - x0 % m + m - 1
        want = [j for j in range(SIEVE_BLOCK) if _sieve_predicate(c, x1 + j)]
        assert list(sieve.ascending(x1, SIEVE_BLOCK)) == want
        x1 += 2
        order = [x1 - j if i % 2 == 0 else x1 + 1 + j
                 for j in range(SIEVE_BLOCK) for i in (0, 1)]
        want = [i for i, x in enumerate(order) if _sieve_predicate(c, x)]
        assert list(sieve.zigzag(x1, 0, SIEVE_BLOCK)) == want


def test_sieve_never_rejects_a_square():
    rng = random.Random(31)
    for _ in range(200):
        y = rng.getrandbits(rng.choice((8, 40, 140)))
        x = rng.getrandbits(150) + y
        c = x * x - y * y
        sieve = SquareSieve(c)
        assert 0 in sieve.ascending(x, 1)
        assert sieve.root(x) == y


def test_classic_matches_plain_loop():
    rng = random.Random(32)
    for _ in range(150):
        n = _random_odd_composite(rng)
        steps = rng.choice((0, 1, 2, 63, 64, 65, 191, 192, 500,
                            SIEVE_BLOCK + 3, 20_000))
        assert _outcome(fermat.classic_fermat(n, steps)) \
            == _outcome(ref_classic(n, steps)), (n, steps)


def test_classic_hit_at_first_step():
    r = fermat.classic_fermat(101 * 103, 10 ** 9)
    assert r.ops == 1 and r.factors == (101, 103)


def test_offset_scan_matches_plain_loop():
    rng = random.Random(33)
    for _ in range(300):
        n = _random_odd_composite(rng)
        sieve = SquareSieve(4 * n)
        # anchors far below the sum reach x < 2 and x^2 < 4N
        anchor = rng.choice((1, 2, 3, rng.randrange(2, 3 * math.isqrt(n) + 9)))
        t_max = rng.choice((0, 1, 2, 7, 100, SIEVE_BLOCK + 1))
        allowed = rng.choice((0, 1, 2, 3, 4, 50, 1 << 40))
        got = fermat._offset_scan(sieve, anchor, t_max, allowed)
        want = ref_offset_scan(n, anchor, t_max, allowed)
        assert got == want, (n, anchor, t_max, allowed)


def test_offset_scan_rows_past_one_block():
    # the sum of 101 * 103 (204) sits t = 2 * SIEVE_BLOCK + 10 below the
    # anchor, in the third block, at probe 2t + 1 of 0, +1, -1, ...
    n = 101 * 103
    anchor = 204 + 2 * SIEVE_BLOCK + 10
    got = fermat._offset_scan(SquareSieve(4 * n), anchor, 3 * SIEVE_BLOCK,
                              1 << 40)
    assert got == ref_offset_scan(n, anchor, 3 * SIEVE_BLOCK, 1 << 40)
    assert got[0][1] == 204 and got[1] == 2 * (2 * SIEVE_BLOCK + 10) + 1


def test_extended_sparse_matches_plain_loop():
    rng = random.Random(34)
    for _ in range(80):
        n = _random_odd_composite(rng)
        budget = SearchBudget(k=rng.choice((1, 2, 3)),
                              v_max=rng.choice((3, 6, 10)),
                              t_max=rng.choice((0, 1, 5, 40)),
                              op_cap=rng.choice((1, 2, 3, 7, 40, 333, 1 << 40)))
        assert _outcome(fermat.extended_fermat_sparse(n, budget)) \
            == _outcome(ref_extended_sparse(n, budget)), (n, budget)


def test_extended_sparse_cap_mid_anchor():
    # t_max = 1642 gives 3285 probes per anchor; stop inside the 4th anchor
    budget = SearchBudget(k=5, v_max=12, t_max=1642, op_cap=3 * 3285 + 100)
    got = fermat.extended_fermat_sparse(EX_N, budget)
    assert _outcome(got) == _outcome(ref_extended_sparse(EX_N, budget))
    assert got.status == "Exhausted" and got.ops == budget.op_cap


def test_sparse_difference_matches_plain_loop():
    rng = random.Random(35)
    for _ in range(80):
        n = _random_odd_composite(rng)
        if is_probable_prime(n):
            continue
        # v_max past log2(2 sqrt(N)) puts values with a^2 >= 4bN in the run
        budget = SearchBudget(k=rng.choice((1, 2, 3)),
                              v_max=rng.choice((4, 8, 14, 24)), t_max=4,
                              multipliers=rng.choice(((1,), (1, 2),
                                                      (3, 1), (1, 2, 4, 8))),
                              op_cap=rng.choice((1, 2, 3, 5, 7, 99, 1 << 40)))
        assert _outcome(sparse_diff.sparse_difference_factor(n, budget)) \
            == _outcome(ref_sparse_difference(n, budget)), (n, budget)
    # values past 2^63, and caps inside the first, second and third chunk
    # of 2048 values (two or four ops each)
    rng = random.Random(37)
    for _ in range(40):
        n = _random_odd_composite(rng)
        if is_probable_prime(n):
            continue
        budget = SearchBudget(k=rng.choice((1, 2, 3)),
                              v_max=rng.choice((63, 70, 129)), t_max=4,
                              multipliers=rng.choice(((1,), (3, 1))),
                              op_cap=rng.choice((7, 4_097, 5_001, 9_000,
                                                 13_001)))
        assert _outcome(sparse_diff.sparse_difference_factor(n, budget)) \
            == _outcome(ref_sparse_difference(n, budget)), (n, budget)


@pytest.mark.parametrize("v", [62, 63, 129])
@pytest.mark.parametrize("a_min", [(1 << 40) - (1 << 20) + 2,
                                   (1 << 40) + (1 << 20) + 2])
def test_sparse_difference_residue_chunks(v, a_min):
    # the scan sieves int64 values congruent to the stream's values and
    # rebuilds exact values only for survivors; a_min is itself a value, in
    # the lower and in the upper half of the run for 2^40
    exact = list(itertools.islice(
        expansions.sparse_values(3, v, False), 160_000))
    sieve = SquareSieve(-4 * 10403)
    start = 0
    for a_mod, wide, offsets, pieces in sparse_diff._chunks(3, v, a_min):
        values = exact[start:start + len(a_mod)]
        if not values:
            break
        assert a_mod.dtype == np.int64
        a_mod, wide = a_mod[:len(values)], wide[:len(values)]
        assert (a_mod % SIEVE_MODULUS).tolist() \
            == [x % SIEVE_MODULUS for x in values]
        assert (sieve.values(a_mod)
                == sieve.values(a_mod % SIEVE_MODULUS)).all()
        assert wide.tolist() == [x >= a_min for x in values]
        for i, x in enumerate(values):
            e, lower, mid = pieces[bisect.bisect_right(offsets, i) - 1]
            if not lower:
                assert x == 1 << e + i - mid
            else:
                assert x == (1 << e) + (lower[i - mid] if i >= mid
                                        else -lower[mid - 1 - i])
        start += len(a_mod)
    assert start == len(exact)


def test_sparse_difference_cap_mid_value():
    # 57 = 3 * 19: a = 1, 2, 4, 8 (a^2 < 4N) cost two ops each; a = 16
    # (a^2 >= 4N) tests a^2 - 4N at op 9 and hits with a^2 + 4N at op 10
    n = 57
    for cap in (8, 9, 10, 11):
        budget = SearchBudget(k=1, v_max=5, t_max=4, multipliers=(1,),
                              op_cap=cap)
        got = sparse_diff.sparse_difference_factor(n, budget)
        assert _outcome(got) == _outcome(ref_sparse_difference(n, budget))
        if cap < 10:
            assert got.status == "Exhausted" and got.ops == cap
        else:
            assert got.factors == (3, 19) and got.ops == 10
            assert got.certificate.witness["sign_bn"] == -1


def test_sparse_difference_values_past_int64():
    # v = 129: sparse values near 2^129 still reduce exactly
    rng = random.Random(36)
    p = random_prime(rng, 128)
    d = (1 << 129) - (1 << 40)
    while not is_probable_prime(p + d):
        p = random_prime(rng, 128)
    n = p * (p + d)
    budget = SearchBudget(k=2, v_max=129, t_max=4, multipliers=(1,))
    got = sparse_diff.sparse_difference_factor(n, budget)
    assert got.factored and got.factors == (p, p + d)
    assert _outcome(got) == _outcome(ref_sparse_difference(n, budget))
