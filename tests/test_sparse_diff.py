import random
import tracemalloc

import pytest

from conftest import random_prime
from sparsefactor import sparse_diff
from sparsefactor.arith import SquareSieve, is_probable_prime
from sparsefactor.expansions import naf, stream_length, weight
from sparsefactor.model import SearchBudget, verify_certificate
from sparsefactor.weakset import WeakClassSpec, generate_weak


def test_discriminant_root_known():
    # q - p = 2 for 10403 = 101 * 103: a^2 + 4N = 204^2, split at u = 103
    assert 2 * 2 + 4 * 10403 == 41616 == 204 ** 2
    assert SquareSieve(-4 * 10403).root(2) == 204
    assert sparse_diff._extract(2, 204, 10403) == (103, 101, 103)
    assert SquareSieve(-4 * 143).root(2) == 24
    assert sparse_diff._extract(2, 24, 143) == (13, 11, 13)
    assert SquareSieve(-4 * 10403).root(3) is None
    assert SquareSieve(4 * 10403).root(2) is None  # a^2 - 4N < 0


def test_roots_from_discriminant_known():
    assert sparse_diff._extract(2, 8, 15) == (5, 3, 5)
    # parity failure: a + r odd means no integer root
    assert sparse_diff._extract(3, 8, 10) is None


def test_sum_pattern_also_splits():
    # p + q sparse: 3 + 5 = 8 solves U^2 - 8U + 15 with root 5
    assert SquareSieve(4 * 15).root(8) == 2
    assert sparse_diff._extract(8, 2, 15) == (5, 3, 5)


def test_driver_small():
    r = sparse_diff.sparse_difference_factor(
        10403, SearchBudget(k=1, v_max=4, t_max=4, multipliers=(1,)))
    assert r.factors == (101, 103)
    assert r.certificate.witness["a"] == 2
    assert r.certificate.witness["b"] == 1
    assert verify_certificate(10403, r.certificate)


def test_driver_weight_two():
    n = 101 * 149
    assert weight(149 - 101) == 2
    assert naf(48).terms == ((1, 6), (-1, 4))
    r = sparse_diff.sparse_difference_factor(
        n, SearchBudget(k=2, v_max=8, t_max=4, multipliers=(1,)))
    assert r.factors == (101, 149)
    assert r.certificate.witness["a"] == 48
    assert verify_certificate(n, r.certificate)


def test_driver_shortcuts():
    b = SearchBudget(k=1, v_max=4, t_max=4)
    assert sparse_diff.sparse_difference_factor(10007, b).status == "ProbablePrime"
    r = sparse_diff.sparse_difference_factor(30, b)
    assert r.factors == (2, 15)
    assert sparse_diff.sparse_difference_factor(1, b).status == "TrivialInput"


def test_driver_multiplier_transform():
    # build p = 2q - 1 so the multiplier b = 2 linearizes: 2q - p = 1
    from sparsefactor.arith import perfect_square
    rng = random.Random(21)
    while True:
        q = random_prime(rng, 24)
        p = 2 * q - 1
        if (is_probable_prime(p) and weight(p - q) > 3
                and perfect_square(4 * p * q + 1) is None):
            break
    n = p * q
    budget = SearchBudget(k=1, v_max=8, t_max=4, multipliers=(1, 2))
    r = sparse_diff.sparse_difference_factor(n, budget)
    assert r.factored and set(r.factors) == {p, q}
    assert r.certificate.witness["b"] == 2
    assert r.certificate.witness["a"] == 1
    assert verify_certificate(n, r.certificate)


def test_driver_op_cap_and_ceiling():
    n = 101 * 149
    budget = SearchBudget(k=2, v_max=8, t_max=4, multipliers=(1,), op_cap=3)
    r = sparse_diff.sparse_difference_factor(n, budget)
    assert r.status == "Exhausted"
    assert r.ops == 3

    # full exhaustion never exceeds multipliers * stream length * 4 patterns
    prime = 10007
    budget = SearchBudget(k=2, v_max=6, t_max=4, multipliers=(1, 2))
    r = sparse_diff.sparse_difference_factor(prime * 10009, budget)
    ceiling = 2 * stream_length(2, 6, False) * 4
    assert r.ops <= ceiling


def test_completeness_on_generated_instances():
    rng = random.Random(22)
    spec64 = WeakClassSpec("g", k=3)
    spec128 = WeakClassSpec("g", k=2)
    rows = (generate_weak(spec64, 64, 12, seed=5)
            + generate_weak(spec128, 128, 8, seed=6))
    for n, p, q, _ in rows:
        bits = n.bit_length()
        k = 3 if bits <= 70 else 2
        budget = SearchBudget(k=k, v_max=bits // 2, t_max=4, multipliers=(1,))
        r = sparse_diff.sparse_difference_factor(n, budget)
        assert r.factored and r.factors == (p, q), (n, p, q)
        assert verify_certificate(n, r.certificate)
        assert r.ops <= 4 * stream_length(k, bits // 2, False)


@pytest.mark.parametrize("v_max", [10_000, 40_000])
@pytest.mark.parametrize("k", [1, 3])
def test_capped_scan_memory_stays_flat_in_v_max(k, v_max):
    # weight 1 stays lazy: listing 2^0 ... 2^v at once holds about v^2/16
    # bytes, some 100 MB at v = 40,000
    budget = SearchBudget(k=k, v_max=v_max, t_max=4, op_cap=2)
    tracemalloc.start()
    try:
        r = sparse_diff.sparse_difference_factor(10403, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.status == "Exhausted" and r.ops == 2
    assert peak < 2 << 20
