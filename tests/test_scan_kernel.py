"""The residue-sieved scans against plain loops.

Each reference below walks the same canonical probe order as its engine but
takes an exact square root at every candidate, with no residue filter.  The
engines must agree with them on status, factors, certificate and ops: the
sieve may only skip work, never change an outcome or a count.
"""

import math
import random

import numpy as np
import pytest

from conftest import random_prime, random_semiprime
from sparsefactor import expansions, fermat, sparse_diff
from sparsefactor.arith import (
    SIEVE_BLOCK,
    SIEVE_MODULUS,
    SquareSieve,
    iroot,
    is_probable_prime,
    isqrt_ceil,
)
from sparsefactor.model import (
    Certificate,
    METHOD_CLASSIC_FERMAT,
    METHOD_EXTENDED_FERMAT_SPARSE,
    METHOD_SPARSE_DIFFERENCE,
    SearchBudget,
    exhausted,
    factored,
)

EX_N = 448316072600119


def _root(v):
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


def _outcome(r):
    return r.status, r.factors, r.certificate, r.ops


def ref_classic(n, max_steps):
    x = isqrt_ceil(n)
    ops = 0
    while ops < max_steps:
        ops += 1
        y = _root(x * x - n)
        if y is not None and x - y > 1:
            cert = Certificate(METHOD_CLASSIC_FERMAT, {"x": x, "y": y})
            return factored(x - y, x + y, cert, ops)
        x += 1
    return exhausted(ops)


def ref_offset_scan(n, anchor, t_max, ops_allowed):
    ops = 0
    for t in range(t_max + 1):
        for x in ((anchor,) if t == 0 else (anchor + t, anchor - t)):
            if ops >= ops_allowed:
                return None, ops, True
            ops += 1
            if x < 2:
                continue
            y = _root(x * x - 4 * n)
            if y is not None and x - y > 2:
                return (x - anchor, x, y), ops, False
    return None, ops, False


def ref_extended_sparse(n, budget, partition=None):
    start, stride = partition or (0, 1)
    s0, f0 = math.isqrt(n), iroot(n, 4)
    ops = 0
    for idx, a in expansions.stream_slice(budget.k, budget.v_max, True,
                                          start, stride):
        if ops >= budget.op_cap:
            break
        base = s0 + a * f0
        if base <= 0:
            continue
        hit, used, capped = ref_offset_scan(n, base + n // base, budget.t_max,
                                            budget.op_cap - ops)
        ops += used
        if hit is not None:
            t, x, y = hit
            digits = [[s, e] for s, e in expansions.naf(a).terms]
            cert = Certificate(METHOD_EXTENDED_FERMAT_SPARSE,
                               {"a": a, "digits": digits, "t": t,
                                "x": x, "y": y, "index": idx})
            return factored((x - y) // 2, (x + y) // 2, cert, ops)
        if capped:
            break
    return exhausted(ops)


def ref_sparse_difference(n, budget, partition=None):
    start, stride = partition or (0, 1)
    ops = 0
    for b in budget.multipliers:
        four_bn = 4 * b * n
        for idx, a in expansions.stream_slice(budget.k, budget.v_max, False,
                                              start, stride):
            for sign_a, sign_bn in sparse_diff.SIGN_PATTERNS:
                disc = a * a - four_bn if sign_bn > 0 else a * a + four_bn
                if disc < 0:
                    continue
                if ops >= budget.op_cap:
                    return exhausted(ops)
                ops += 1
                r = _root(disc)
                hit = None if r is None else sparse_diff._extract(a, r, n)
                if hit is None:
                    continue
                p, q, u = hit
                digits = [[s, e] for s, e in expansions.naf(a).terms]
                cert = Certificate(
                    METHOD_SPARSE_DIFFERENCE,
                    {"a": a, "digits": digits, "b": b, "sign_a": sign_a,
                     "sign_bn": sign_bn, "u": u, "index": idx})
                return factored(p, q, cert, ops)
    return exhausted(ops)


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


def _sieve_predicate(c, x):
    return all((x * x - c) % m in {r * r % m for r in range(m)}
               for m in (64, 63, 65, 11))


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
        for part in (None, (0, 2), (1, 2), (2, 3)):
            assert _outcome(fermat.extended_fermat_sparse(n, budget, part)) \
                == _outcome(ref_extended_sparse(n, budget, part)), \
                (n, budget, part)


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
        for part in (None, (0, 2), (1, 2), (1, 3)):
            assert _outcome(sparse_diff.sparse_difference_factor(n, budget, part)) \
                == _outcome(ref_sparse_difference(n, budget, part)), \
                (n, budget, part)


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
