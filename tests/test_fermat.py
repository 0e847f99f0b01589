import math
import random

import pytest

from conftest import random_semiprime
from sparsefactor import fermat
from sparsefactor.arith import iroot
from sparsefactor.model import (
    LowOrderBaseError,
    SearchBudget,
    exhausted,
    verify_certificate,
)

EX_N = 448316072600119
EX_P, EX_Q = 15402707, 29106317


def test_classic_fermat_small():
    r = fermat.classic_fermat(15, 10)
    assert r.factors == (3, 5)
    assert r.certificate.witness == {"x": 4, "y": 1}
    assert r.ops == 1


def test_classic_fermat_two_steps():
    r = fermat.classic_fermat(2881, 10)
    assert r.factors == (43, 67)
    assert r.certificate.witness == {"x": 55, "y": 12}
    assert r.ops == 2
    assert verify_certificate(2881, r.certificate)


def test_classic_fermat_exhausts_far_factors():
    # the scan length to the true sum exceeds 10^5 here
    assert fermat.step_count_bound(EX_N, EX_P) > 10 ** 5
    r = fermat.classic_fermat(EX_N, 10 ** 5)
    assert r.status == "Exhausted"
    assert r.ops == 10 ** 5


def test_classic_fermat_edges():
    with pytest.raises(ValueError, match="even input"):
        fermat.classic_fermat(100, 10)
    r = fermat.classic_fermat(9, 5)
    assert r.factors == (3, 3)
    assert fermat.classic_fermat(10007, 50).status == "Exhausted"
    # skips the trivial 1 * n representation and keeps going
    r = fermat.classic_fermat(15, 10)
    assert r.factors[0] > 1


def test_step_count_bound():
    assert fermat.step_count_bound(9, 3) == 0
    assert fermat.step_count_bound(2881, 43) == 3
    assert math.ceil((53 - 43) ** 2 / 43) == 3
    expected = -((-(EX_P - math.isqrt(EX_N)) ** 2) // EX_P)
    assert fermat.step_count_bound(EX_N, EX_P) == expected
    with pytest.raises(ValueError):
        fermat.step_count_bound(2881, 44)
    with pytest.raises(ValueError):
        fermat.step_count_bound(2881, 67)  # the larger factor is rejected


def test_classic_step_count_within_bound_sampled():
    rng = random.Random(11)
    for _ in range(60):
        n, p, q = random_semiprime(rng, 38, max_gap=1 << 14)
        bound = fermat.step_count_bound(n, p)
        r = fermat.classic_fermat(n, bound + 1)
        assert r.factored and r.factors == (p, q)
        assert r.ops <= bound + 1


def test_extended_offset_reference():
    r = fermat.extended_fermat_offset(10403, 0, 8)
    assert r.factors == (101, 103)
    # floor-exact anchor: X_0 = 101 + 10403 // 101 = 204, the sum itself
    assert r.certificate.witness["t"] == 0
    assert r.certificate.witness["x"] == 204

    r = fermat.extended_fermat_offset(EX_N, 1724, 400)
    assert r.factors == (EX_P, EX_Q)
    assert r.certificate.witness["t"] == 339
    assert r.certificate.witness["x"] == 44509024
    assert verify_certificate(EX_N, r.certificate)

    assert fermat.extended_fermat_offset(EX_N, 0, 100).status == "Exhausted"


def test_offset_scan_order_prefers_small_magnitude():
    # anchor for a=0 on 2881 is 53 + 2881//53 = 107; the sum 110 sits at t=+3
    r = fermat.extended_fermat_offset(2881, 0, 8)
    assert r.factors == (43, 67)
    assert r.certificate.witness["t"] == 3


def test_offset_self_consistency():
    rng = random.Random(12)
    for _ in range(40):
        n, p, q = random_semiprime(rng, 40)
        s0, f0 = math.isqrt(n), iroot(n, 4)
        a_true = (2 * (p - s0) + f0) // (2 * f0)
        anchor = fermat.sum_anchor(n, a_true)
        if anchor is None:
            continue
        t_need = abs(p + q - anchor)
        r = fermat.extended_fermat_offset(n, a_true, t_need)
        assert r.factored and r.factors == (p, q)


def test_sum_approximation_guarantee():
    # some |a| < 2 N^(1/4) puts the anchor within 2 N^(1/4) of p + q
    rng = random.Random(13)
    for _ in range(100):
        n, p, q = random_semiprime(rng, 40)
        s0, f0 = math.isqrt(n), iroot(n, 4)
        assert p > f0
        best = None
        for f in (p, q):
            a = (2 * (f - s0) + f0) // (2 * f0)
            anchor = fermat.sum_anchor(n, a)
            if anchor is None:
                continue
            if best is None or abs(p + q - anchor) < best[0]:
                best = (abs(p + q - anchor), a)
        gap, a = best
        assert abs(a) < 2 * f0
        assert gap < 2 * f0


def test_extended_sparse_reference_counters():
    # deterministic counters of the 49-bit reference fixture: ops is the
    # number of probes in canonical order, sieved or not
    r = fermat.extended_fermat_sparse(EX_N, SearchBudget(k=5, v_max=12,
                                                         t_max=1642))
    assert r.factors == (EX_P, EX_Q)
    assert r.ops == 9_435_198
    assert r.certificate.witness["index"] == 2903
    assert r.certificate.witness["t"] == 339


def test_extended_sparse_reference_exact_checks(monkeypatch):
    # the sieve's strength as a deterministic count: the reference fixture's
    # scan hands 19,504 survivors to the exact square check (math.isqrt),
    # beside one isqrt of N; a weaker filter hands it more (19,782
    # perfect_square calls before the scan checked survivors itself)
    calls = []
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
    r = fermat.extended_fermat_sparse(EX_N, SearchBudget(k=5, v_max=12,
                                                         t_max=1642))
    assert r.ops == 9_435_198
    assert len(calls) == 1 + 19_504


def test_extended_sparse_small():
    r = fermat.extended_fermat_sparse(10403, SearchBudget(k=1, v_max=3, t_max=8))
    assert r.factors == (101, 103)
    assert r.certificate.witness["a"] == 0
    assert r.certificate.witness["index"] == 0
    assert verify_certificate(10403, r.certificate)


def test_extended_sparse_prime_exhausts():
    r = fermat.extended_fermat_sparse(10007, SearchBudget(k=1, v_max=3, t_max=8))
    assert r.status == "Exhausted"


def test_extended_sparse_op_cap():
    capped = fermat.extended_fermat_sparse(
        EX_N, SearchBudget(k=5, v_max=12, t_max=1642, op_cap=500))
    assert capped.status == "Exhausted"
    assert capped.ops <= 500


def test_solve_quadratic_from_sum():
    assert fermat.solve_quadratic_from_sum(10403, 204) == (101, 103)
    assert fermat.solve_quadratic_from_sum(EX_N, 44509024) == (EX_P, EX_Q)
    assert fermat.solve_quadratic_from_sum(10403, 205) is None
    assert 205 ** 2 - 4 * 10403 == 413


def test_bsgs_small():
    r = fermat.bsgs_fermat(10403, 2)
    assert r.factors == (101, 103)
    assert r.certificate.witness["x"] == 204
    assert verify_certificate(10403, r.certificate)

    r = fermat.bsgs_fermat(15, 2, window=(8, 9))
    assert r.factors == (3, 5)
    assert r.certificate.witness["e"] == 0


def test_bsgs_reference_semiprime():
    r = fermat.bsgs_fermat(EX_N, 3)
    assert r.factors == (EX_P, EX_Q)
    assert r.certificate.witness["x"] == 44509024
    assert verify_certificate(EX_N, r.certificate)


def test_bsgs_lucky_gcd():
    r = fermat.bsgs_fermat(10403, 101)
    assert r.factors == (101, 103)
    assert r.ops == 0
    assert verify_certificate(10403, r.certificate)


def test_bsgs_low_order_base():
    with pytest.raises(LowOrderBaseError):
        fermat.bsgs_fermat(10403, 10402)  # -1 has order 2
    with pytest.raises(ValueError):
        fermat.bsgs_fermat(100, 3)


def test_bsgs_window_and_validation_reject():
    # a window that misses the sum exhausts instead of inventing factors
    r = fermat.bsgs_fermat(10403, 2, window=(210, 240))
    assert r.status == "Exhausted"
    with pytest.raises(ValueError):
        fermat.bsgs_fermat(10403, 2, window=(240, 210))


def test_bsgs_multiplication_budget():
    rng = random.Random(14)
    for _ in range(30):
        n, p, q = random_semiprime(rng, 40)
        lo, hi = fermat.balanced_window(n)
        assert lo <= p + q < hi
        r = fermat.bsgs_fermat(n, 3)
        if not r.factored:  # tiny-order base: retry with another
            r = fermat.bsgs_fermat(n, 5)
        assert r.factored and r.factors == (p, q)
        width = hi - lo
        assert r.ops <= 4 * math.isqrt(width) + 8


def test_bsgs_op_cap_bounds_ops():
    full = fermat.bsgs_fermat(EX_N, 3)
    assert full.ops == 3071
    for cap in (1, 100, 300, 1000, 3000, 3200, 3300):
        r = fermat.bsgs_fermat(EX_N, 3, op_cap=cap)
        assert r.ops <= cap
        if r.factored:  # a smaller m can reach the sum in fewer ops
            assert r.factors == (EX_P, EX_Q)
            assert verify_certificate(EX_N, r.certificate)
    assert fermat.bsgs_fermat(EX_N, 3, op_cap=3000).status == "Exhausted"
    # a cap above the full search's cost keeps m and the payload
    for cap in (3400, 10 ** 9):
        assert fermat.bsgs_fermat(EX_N, 3, op_cap=cap) == full


def test_bsgs_op_cap_searches_a_window_prefix():
    # 122 bits, q - p = 2^40 + 1798: the sum lies 174,762 above lo, inside
    # the prefix a 5000-op cap covers; uncapped, m would be ~4.6e8
    p, q = 1729382256910270481, 1729383356421898279
    n = p * q
    assert n.bit_length() == 122
    r = fermat.bsgs_fermat(n, 2, op_cap=5000)
    assert r.factors == (p, q) and r.ops <= 5000
    assert verify_certificate(n, r.certificate)
    r = fermat.bsgs_fermat(n, 2, op_cap=1000)
    assert (r.status, r.ops) == ("Exhausted", 999)
    # the two powers alone cost 2 * 122 multiplications
    assert fermat.bsgs_fermat(n, 2, op_cap=244) == exhausted(0)


def test_balanced_window_covers_equal_factors():
    lo, hi = fermat.balanced_window(9)
    assert lo <= 6 < hi
