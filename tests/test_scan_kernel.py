"""The residue-sieved scans against plain loops.

Each reference in `reference.py` walks the same canonical probe order as
its engine but takes an exact square root at every candidate, with no
residue filter.  The engines must agree with them on status, factors,
certificate and ops: the sieve may only skip work, never change an outcome
or a count.
"""

import bisect
import gc
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    sieve_residues,
)
from sparsefactor.model import SearchBudget, result_to_json

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
    # an offset scan's two windows: below x0 - 4 and above x0 + 5
    for lo in (x0 - 154, x0 + 6):
        want = [x for x in range(lo, lo + 150) if _sieve_predicate(c, x)]
        assert sieve.window(lo, 150) == want
    xs = [x0 + 7919 * j for j in range(300)]
    mask = sieve.values(sieve_residues(np.array([x % SIEVE_MODULUS
                                                 for x in xs])))
    assert [bool(v) for v in mask] == [_sieve_predicate(c, x) for x in xs]
    # a full block from the last residue of a period reads up to the end of
    # that modulus' table: ascending from x = -1 (mod m); and a scan's
    # whole first block, SIEVE_BLOCK x on each side of x = 1 (mod m)
    for m in (64 * 63, 65 * 11):
        x1 = x0 - x0 % m + m - 1
        want = [j for j in range(SIEVE_BLOCK) if _sieve_predicate(c, x1 + j)]
        assert list(sieve.ascending(x1, SIEVE_BLOCK)) == want
        x1 += 2
        lo = x1 - SIEVE_BLOCK + 1
        want = [x for x in range(lo, lo + 2 * SIEVE_BLOCK)
                if _sieve_predicate(c, x)]
        assert sieve.window(lo, 2 * SIEVE_BLOCK) == want


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(c=st.integers(1 << 64, 1 << 200), negative=st.booleans(),
       period=st.integers(-3, 3), offset=st.integers(-2 * SIEVE_BLOCK, 40),
       count=st.integers(0, 2 * SIEVE_BLOCK + 1))
@example(c=1 << 64, negative=False, period=0, offset=-1, count=1)
@example(c=(1 << 64) + 1, negative=True, period=-1, offset=-SIEVE_BLOCK,
         count=2 * SIEVE_BLOCK)
def test_sieve_window_matches_residue_predicate(c, negative, period, offset,
                                                count):
    # windows near a multiple of SIEVE_MODULUS, most of them across it,
    # below 0 for period < 0, and c of either sign above 2^64
    c = -c if negative else c
    lo = period * SIEVE_MODULUS + offset
    want = [x for x in range(lo, lo + count) if _sieve_predicate(c, x)]
    assert SquareSieve(c).window(lo, count) == want


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
    # scans past two blocks of 2 * SIEVE_BLOCK probes, and caps inside the
    # second half of the first, second and third block
    rng = random.Random(38)
    for _ in range(40):
        n = _random_odd_composite(rng)
        sieve = SquareSieve(4 * n)
        anchor = rng.choice((2, rng.randrange(2, 3 * math.isqrt(n) + 9)))
        t_max = rng.choice((2 * SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK + 2,
                            3 * SIEVE_BLOCK + 5))
        allowed = rng.choice((SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK - 1,
                              3 * SIEVE_BLOCK + 7, 4 * SIEVE_BLOCK + 1,
                              5 * SIEVE_BLOCK + 3, 1 << 40))
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


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("d", [SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1,
                               2 * SIEVE_BLOCK - 1, 2 * SIEVE_BLOCK,
                               2 * SIEVE_BLOCK + 1])
def test_offset_scan_hits_at_block_edges(d, side):
    # the same only hit, 204, d below or above the anchor, at probe 2d or
    # 2d - 1: the first and last distances of the first two blocks of
    # 2 * SIEVE_BLOCK probes on either side of the anchor
    n = 101 * 103
    anchor = 204 + d if side == "below" else 204 - d
    got = fermat._offset_scan(SquareSieve(4 * n), anchor, 3 * SIEVE_BLOCK,
                              1 << 40)
    assert got == ref_offset_scan(n, anchor, 3 * SIEVE_BLOCK, 1 << 40)
    assert got[0][1] == 204
    assert got[1] == (2 * d + 1 if side == "below" else 2 * d)


def test_offset_scan_takes_the_lowest_probe_of_a_block():
    # 4 * 1155 = x^2 - y^2 with x - y > 2 at x = 68, 76, 92, 116, 172, 236
    # and 388; from the anchor 100 the first probe to reach one is the 16th,
    # x = 92 below it, before x = 116 above it (probe 31)
    n = 1155
    got = fermat._offset_scan(SquareSieve(4 * n), 100, 400, 1 << 40)
    assert got == ref_offset_scan(n, 100, 400, 1 << 40)
    assert got[0][:2] == (-8, 92) and got[1] == 17


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


@pytest.fixture
def fresh_kept_chunks():
    sparse_diff._kept.cache_clear()
    yield
    sparse_diff._kept.cache_clear()


@pytest.mark.parametrize("v", [62, 63, 129])
@pytest.mark.parametrize("a_min", [(1 << 40) - (1 << 20) + 2,
                                   (1 << 40) + (1 << 20) + 2])
def test_sparse_difference_residue_chunks(v, a_min, monkeypatch,
                                          fresh_kept_chunks):
    # the scan sieves each value by its residues modulo 4032 and 715 and
    # rebuilds exact values only for survivors; a_min is itself a value, in
    # the lower and in the upper half of the run for 2^40.  Forty chunks
    # are kept, so the second pass reads them from the cache and the rest
    # from a fresh build.
    monkeypatch.setattr(sparse_diff, "_KEPT_CHUNKS", 40)
    exact = list(itertools.islice(
        expansions.sparse_values(3, v, False), 160_000))
    for _ in range(2):
        start = 0
        for residues, offsets, pieces in sparse_diff._chunks(3, v):
            values = exact[start:start + len(residues[0])]
            if not values:
                break
            for m, res in zip((64 * 63, 65 * 11), residues):
                assert res.dtype == np.uint16
                assert res[:len(values)].tolist() == [x % m for x in values]
            wide = sparse_diff._wide(offsets, pieces, len(values), a_min)
            assert wide.tolist() == [x >= a_min for x in values]
            for i, x in enumerate(values):
                e, lower, mid = pieces[bisect.bisect_right(offsets, i) - 1]
                if not lower:
                    assert x == 1 << e + i - mid
                else:
                    assert x == (1 << e) + (lower[i - mid] if i >= mid
                                            else -lower[mid - 1 - i])
            start += len(values)
        assert start == len(exact)
    assert len(sparse_diff._kept(3, v)) == 40


@pytest.fixture
def kept_three_chunks(monkeypatch, fresh_kept_chunks):
    monkeypatch.setattr(sparse_diff, "_KEPT_CHUNKS", 3)


# the fixture is set up once for all examples, which share its cache
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 1 << 32), v_max=st.sampled_from((40, 41)),
       cap=st.sampled_from((3, 4_097, 9_001, 12_289, 20_000, 1 << 40)),
       planted=st.one_of(st.none(), st.integers(0, 16_000)))
def test_sparse_difference_cached_and_uncached_agree(seed, v_max, cap,
                                                     planted,
                                                     kept_three_chunks):
    # three chunks (6,144 values, 12,288 to 24,576 ops) are kept per stream;
    # both v_max stay in one cache across examples, and the uncached scan
    # builds every chunk afresh.  A planted q - p from the stream puts hits
    # inside and past the kept chunks.
    rng = random.Random(seed)
    if planted is None:
        n = _random_odd_composite(rng)
    else:
        stream = expansions.sparse_values(3, v_max, False)
        a = next(x for x in itertools.islice(stream, planted, None)
                 if x % 2 == 0)
        p = random_prime(rng, 44)
        while not is_probable_prime(p + a):
            p = random_prime(rng, 44)
        n = p * (p + a)
    budget = SearchBudget(k=3, v_max=v_max, t_max=4, multipliers=(1, 3),
                          op_cap=cap)
    cached = sparse_diff.sparse_difference_factor(n, budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse_diff, "_chunks", sparse_diff._stream_chunks)
        uncached = sparse_diff.sparse_difference_factor(n, budget)
    assert result_to_json(cached) == result_to_json(uncached)


@pytest.mark.parametrize("values", [20 * sparse_diff._CHUNK,
                                    2 * sparse_diff._KEPT_CHUNKS
                                    * sparse_diff._CHUNK])
def test_sparse_difference_cache_memory_flat_in_v_max(values,
                                                       fresh_kept_chunks):
    # a scan capped inside the kept prefix (about 20 chunks) or past it
    # keeps, at any v_max, between one and two times a kept chunk's
    # residues (two uint16 per value) for each chunk it kept: the run
    # pieces and lower runs of the chunks read, not the build that read them
    rng = random.Random(39)
    n = random_semiprime(rng, 256)[0]
    for v_max in (62, 100, 129, 400, 1600):
        sparse_diff._kept.cache_clear()
        gc.collect()
        tracemalloc.start()
        budget = SearchBudget(k=3, v_max=v_max, t_max=4, multipliers=(1,),
                              op_cap=2 * values)
        assert not sparse_diff.sparse_difference_factor(n, budget).factored
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        chunks = len(sparse_diff._kept(3, v_max))
        # at least two ops a value: the cap reads one chunk past values
        assert 0 < chunks <= min(values // sparse_diff._CHUNK + 1,
                                 sparse_diff._KEPT_CHUNKS)
        residues = chunks * sparse_diff._CHUNK * 4
        assert residues < size < 2 * residues, (v_max, chunks, size)


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
