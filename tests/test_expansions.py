import itertools
import random
import tracemalloc
from functools import lru_cache

import pytest

from sparsefactor import expansions
from sparsefactor.expansions import (
    SparseInt,
    naf,
    naf_weight_stats,
    sparse_values,
    stream_length,
    value_of,
    weight,
)


def test_value_of():
    s = SparseInt(((1, 11), (-1, 8), (-1, 6), (-1, 2)))
    assert value_of(s) == 1724
    assert value_of(SparseInt(())) == 0
    assert value_of(SparseInt(((1, 5), (1, 1)))) == 34


def test_sparse_int_validation():
    with pytest.raises(ValueError):
        SparseInt(((1, 2), (1, 5)))  # increasing exponents
    with pytest.raises(ValueError):
        SparseInt(((2, 3),))  # bad sign


def test_sparse_int_render():
    assert str(naf(1724)) == "2^11 - 2^8 - 2^6 - 2^2"
    assert str(naf(0)) == "0"
    assert str(naf(-3)) == "-2^2 + 2^0"


def test_naf_known_values():
    assert naf(7).terms == ((1, 3), (-1, 0))
    assert naf(0).terms == ()
    assert naf(1724).terms == ((1, 11), (-1, 8), (-1, 6), (-1, 2))


def test_naf_round_trip_and_nonadjacency():
    for n in range(-(1 << 16), 1 << 16):
        s = naf(n)
        assert value_of(s) == n
        exps = [e for _, e in s.terms]
        assert all(a - b >= 2 for a, b in zip(exps, exps[1:]))
    rng = random.Random(5)
    for _ in range(200):
        n = rng.getrandbits(300) - (1 << 299)
        assert value_of(naf(n)) == n


def test_weight_known_values():
    assert weight(7) == 2
    for k in range(41):
        assert weight(1 << k) == 1
    assert weight(1724) == 4
    assert weight(0) == 0


def test_weight_equals_naf_term_count():
    for n in range(1 << 16):
        assert weight(n) == len(naf(n).terms)
        assert weight(-n) == weight(n)


@lru_cache(maxsize=None)
def _min_signed_weight(n):
    # independent minimum-weight oracle over all signed-binary expansions
    if n <= 1:
        return n
    if n % 2 == 0:
        return _min_signed_weight(n // 2)
    return 1 + min(_min_signed_weight((n - 1) // 2),
                   _min_signed_weight((n + 1) // 2))


def test_naf_is_minimum_weight():
    for n in range(1 << 12):
        assert weight(n) == _min_signed_weight(n)


def test_stream_first_values():
    first = list(itertools.islice(sparse_values(1, 2, False), 3))
    assert first == [1, 2, 4]
    signed = list(itertools.islice(sparse_values(2, 3, True), 7))
    assert signed == [0, 1, -1, 2, -2, 4, -4]


def test_stream_canonical_once():
    vals = list(sparse_values(2, 3, False))
    assert vals.count(5) == 1


def _filter_oracle(k, v, signed):
    # every integer whose NAF has weight <= k and exponents <= v
    top = (1 << (v + 1)) - 1  # generous magnitude cover
    out = set()
    for n in range(1, top + 1):
        s = naf(n)
        if len(s.terms) <= k and all(e <= v for _, e in s.terms):
            out.add(n)
            if signed:
                out.add(-n)
    if signed:
        out.add(0)
    return out


@pytest.mark.parametrize("k,v,signed", [
    (1, 4, False), (2, 5, False), (3, 8, False),
    (1, 4, True), (2, 6, True), (3, 8, True),
])
def test_stream_matches_filter_oracle(k, v, signed):
    got = list(sparse_values(k, v, signed))
    assert len(got) == len(set(got)), "duplicates in stream"
    assert set(got) == _filter_oracle(k, v, signed)
    assert len(got) == stream_length(k, v, signed)
    # order law: weight ascending, then |value|, positive before negative
    keys = [(len(naf(x).terms), abs(x), 0 if x >= 0 else 1) for x in got]
    assert keys == sorted(keys)


def test_stream_contains_reference_coefficient():
    vals = list(sparse_values(5, 12, False))
    assert 1724 in vals
    idx = vals.index(1724)
    for earlier in vals[:idx]:
        assert (weight(earlier), abs(earlier)) < (4, 1724)


def test_stream_indexing_and_partitions():
    for signed in (False, True):
        full = list(sparse_values(3, 8, signed))
        # the stream partitions into weight levels in order, so the stream
        # for a smaller k is a prefix and an index does not depend on k
        for k in (1, 2):
            assert full[:stream_length(k, 8, signed)] \
                == list(sparse_values(k, 8, signed))


def _sorted_levels(k, v, signed):
    # reference: every exponent set with gaps >= 2 under a leading
    # +1 and every sign pattern below it, then one sort per weight level
    out = [0] if signed else []
    for w in range(1, k + 1):
        level = []
        for combo in itertools.combinations(range(v - w + 2), w):
            exps = [c + i for i, c in enumerate(combo)]
            for signs in itertools.product((1, -1), repeat=w - 1):
                level.append((1 << exps[-1])
                             + sum(s << e for s, e in zip(signs, exps)))
        for val in sorted(level):
            out += [val, -val] if signed else [val]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stream_order_matches_sorted_levels(k):
    for v in range(16):
        for signed in (False, True):
            want = _sorted_levels(k, v, signed)
            assert list(sparse_values(k, v, signed)) == want, (k, v, signed)
            assert stream_length(k, v, signed) == len(want), (k, v, signed)


def test_stream_length_closed_form_counts_stream():
    for k, v in ((1, 0), (1, 9), (2, 2), (3, 4), (3, 17), (4, 20), (9, 7)):
        for signed in (False, True):
            assert stream_length(k, v, signed) == sum(
                1 for _ in sparse_values(k, v, signed))
    # weights 1, 2 and 3 at v = 129: 130, C(129, 2) * 2 and C(128, 3) * 4
    assert stream_length(3, 129, False) == 130 + 16512 + 1365504


@pytest.mark.parametrize("k,v_max,first", [
    # the stream used to sort the whole weight-3 level at v = 257 (about
    # 11M values, some 800 MiB) before yielding its first value
    pytest.param(3, 257, 11, id="k3-v257"),
    # and to build weight 1 as one array of 2^0 ... 2^v, quadratic in v
    pytest.param(1, 40_000, 1, id="k1-v40000"),
])
def test_first_value_of_the_top_weight_is_cheap(k, v_max, first):
    head = stream_length(k - 1, v_max, False)  # values of lower weight
    stream = sparse_values(k, v_max, False)
    tracemalloc.start()
    try:
        got = next(itertools.islice(stream, head, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == first and weight(got) == k
    assert peak < 1 << 20


def _top_run(v):
    # the last weight-3 run at v, in Python ints: 2^v minus, then plus,
    # each weight-2 value with exponents <= v - 2, ascending
    prefix = sorted((1 << a) + s * (1 << b)
                    for a in range(2, v - 1) for b in range(a - 1)
                    for s in (1, -1))
    top = 1 << v
    return [top - x for x in reversed(prefix)] + [top + x for x in prefix]


@pytest.mark.parametrize("v", [62, 63])
def test_top_run_is_the_streams_last(v):
    e, lower = list(expansions._weight_runs(3, v))[-1]
    assert e == v and expansions._run(e, lower) == _top_run(v)
    # the stream's largest value, 2^v + 2^(v-2) + 2^(v-4), is its last
    values = list(sparse_values(3, v, False))
    assert max(values) == values[-1] == (1 << v) + (1 << v - 2) + (1 << v - 4)
    signed = list(sparse_values(3, v, True))
    tail = signed[-2 * len(_top_run(v)):]
    assert tail[::2] == _top_run(v)
    assert tail[1::2] == [-x for x in _top_run(v)]


@pytest.mark.parametrize("v", [20, 62, 63, 90])
def test_streams_yield_python_ints(v):
    # certificates are JSON-encoded and callers take .bit_count() of values
    for signed in (False, True):
        values = list(itertools.islice(sparse_values(3, v, signed), 5000))
        assert {type(x) for x in values} == {int}
        for x in values[:300]:
            assert all(type(sign) is int and type(exp) is int
                       for sign, exp in naf(x).terms)


def test_stream_counts_within_cardinality_bound():
    for k, v in ((1, 4), (2, 6), (3, 9)):
        # (2v)^k, the coarse bound on the size of the sparse grid
        assert stream_length(k, v, False) <= (2 * v) ** k


def test_naf_weight_stats_deterministic():
    a = naf_weight_stats(64, 500, seed=9)
    b = naf_weight_stats(64, 500, seed=9)
    assert a == b
    c = naf_weight_stats(64, 500, seed=10)
    assert a != c


def test_naf_weight_stats_matches_exhaustive_mean():
    lo, hi = 1 << 15, 1 << 16
    exact = sum(weight(n) for n in range(lo, hi)) / (hi - lo)
    mean, std = naf_weight_stats(16, 4000, seed=1)
    assert std > 0
    assert abs(mean - exact) < 0.15  # ~6 standard errors at 4000 samples


def test_naf_weight_stats_validation():
    with pytest.raises(ValueError):
        naf_weight_stats(4, 1000, 0)
    with pytest.raises(ValueError):
        naf_weight_stats(64, 10, 0)
