import math
import random

import pytest

from conftest import random_semiprime
from sparsefactor import sparse_exp
from sparsefactor.model import (
    Certificate,
    METHOD_SPARSE_EXPONENT,
    SearchBudget,
    verify_certificate,
)
from sparsefactor.sparse_exp import (
    cyclotomic_form_factor,
    germain_factor,
    sparse_exponent_factor,
    unity_root_recovery,
)


def _grid_runs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n, _, _ = random_semiprime(rng, rng.choice((12, 16, 20, 24, 32)))
        budget = SearchBudget(k=rng.randint(1, 3), v_max=rng.randint(2, 9),
                              t_max=4, op_cap=rng.choice((30, 300)))
        yield n, budget, sparse_exponent_factor(
            n, budget, rng.randint(1, 4), rng.randint(0, 5))


def _trace_factors(n, witness):
    values = [[sum(s << e for s, e in digits) for digits in pair]
              for pair in witness["trace"]]
    return [abs(a * n + b) for a, b in values]


def test_grid_certificates_reverify():
    kinds = set()
    for n, _, r in _grid_runs(150, 35):
        if r.factored:
            kinds.add(r.certificate.witness["kind"])
            assert verify_certificate(n, r.certificate)
            assert r.factors[0] * r.factors[1] == n
    assert kinds == {"grid", "unity_root"}


def test_grid_exponent_bits_sum_trace_factors():
    checked = 0
    for n, _, r in _grid_runs(80, 36):
        if r.factored and r.certificate.witness["kind"] == "grid":
            w = r.certificate.witness
            factors = _trace_factors(n, w)
            assert len(factors) <= r.ops and 0 not in factors
            assert w["exponent_bits"] == sum(f.bit_length() for f in factors)
            checked += 1
    assert checked >= 30


def test_grid_exhausted_run_reports_op_cap():
    exhausted = 0
    for _, budget, r in _grid_runs(80, 37):
        if r.status == "Exhausted" and r.ops == budget.op_cap:
            exhausted += 1
        assert r.ops <= budget.op_cap
    assert exhausted >= 20
    r = sparse_exponent_factor(8633, SearchBudget(k=2, v_max=6, t_max=4,
                                                  op_cap=2))
    assert (r.status, r.ops) == ("Exhausted", 2)


def test_grid_253_split_on_the_506_exponent():
    # base 2, k = 1, v = 1: factors 2, 2, then 1*253 + 0, so E = 2 * 506;
    # 2^506 = 185 (mod 253) and 185^2 - 1 = 69 shares 23 with 253
    assert pow(2, 506, 253) == 185 and pow(185, 2, 253) == 70
    budget = SearchBudget(k=1, v_max=1, t_max=4)
    r = sparse_exponent_factor(253, budget, trials=1)
    assert (r.factors, r.ops) == ((11, 23), 3)
    assert _trace_factors(253, r.certificate.witness) == [2, 2, 253]
    capped = SearchBudget(k=1, v_max=1, t_max=4, op_cap=2)
    assert sparse_exponent_factor(253, capped, trials=1).ops == 2


def test_grid_rejects_no_trials():
    budget = SearchBudget(k=2, v_max=6, t_max=4)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            sparse_exponent_factor(8051, budget, trials=trials)


def test_unity_root_recovery_known():
    split = unity_root_recovery(2, [4], 15)
    assert (split.p, split.q) == (3, 5)
    assert pow(2, 2, 15) == 4 and math.gcd(3, 15) == 3

    split = unity_root_recovery(2, [6], 21)
    assert (split.p, split.q) == (3, 7)
    assert pow(2, 3, 21) == 8 and 8 * 8 % 21 == 1

    assert unity_root_recovery(1, [4], 15) is None


def test_unity_root_recovery_never_false_splits():
    rng = random.Random(32)
    for _ in range(60):
        n, p, q = random_semiprime(rng, 24)
        t = rng.randrange(2, n)
        if math.gcd(t, n) != 1:
            continue
        e = (p - 1) * (q - 1)
        split = unity_root_recovery(t, [e], n)
        if split is not None:
            assert split.p * split.q == n


def test_order_condition_splits_larger_factor():
    # exponents killing q - 1 but not the base's order mod p extract q
    rng = random.Random(33)
    checked = 0
    while checked < 25:
        n, p, q = random_semiprime(rng, 26)
        t = rng.randrange(2, n)
        if math.gcd(t, n) != 1:
            continue
        e = q - 1
        if pow(t, e, p) == 1:  # the base's order mod p divides q - 1
            continue
        assert math.gcd(pow(t, e, n) - 1, n) == q
        checked += 1


def test_germain_known():
    r = germain_factor(253, 4)
    assert r.factors == (11, 23)
    assert r.certificate.witness["multiple"] == 1
    assert verify_certificate(253, r.certificate)

    r = germain_factor(737, 4)
    assert r.factors == (11, 67)
    assert r.certificate.witness["multiple"] == 3
    assert 67 == 2 * 3 * 11 + 1

    r = germain_factor(55, 2)
    assert r.factors == (5, 11)
    assert r.certificate.witness["multiple"] == 1

    assert germain_factor(737, 2).status == "Exhausted"
    with pytest.raises(ValueError):
        germain_factor(100, 2)


def test_germain_base_robustness():
    # failures need ord(T, p) inside a tiny subgroup, so pick p large
    # enough that the bad slice is rare (at p = 11 it is 2/11 of all T)
    p, q = 1019, 2039
    assert q == 2 * p + 1
    n = p * q
    rng = random.Random(34)
    wins = sum(germain_factor(n, 4, base=rng.randrange(2, n - 1)).factored
               for _ in range(100))
    assert wins >= 95


def test_cyclotomic_fermat_number():
    n = 4294967297
    assert n == 641 * 6700417
    budget = SearchBudget(k=2, v_max=6, t_max=4)
    r = cyclotomic_form_factor(n, ("fermat", 5), budget)
    assert r.factors == (641, 6700417)
    w = r.certificate.witness
    assert (w["a"], w["b"]) == (1, -2)
    assert w["steps"] <= 3
    assert verify_certificate(n, r.certificate)


def test_cyclotomic_stops_at_the_op_cap():
    # F5 splits at step 3; a cap of 2 stops one step short of it
    n = 4294967297
    full = cyclotomic_form_factor(n, ("fermat", 5),
                                  SearchBudget(k=2, v_max=6, t_max=4))
    capped = [cyclotomic_form_factor(
        n, ("fermat", 5), SearchBudget(k=2, v_max=6, t_max=4, op_cap=cap))
        for cap in (2, 3)]
    assert (capped[0].status, capped[0].ops) == ("Exhausted", 2)
    assert (capped[1].status, capped[1].ops) == ("Factored", 3)
    assert capped[1].certificate == full.certificate
    assert verify_certificate(n, capped[1].certificate)


def test_lucky_certificate_reverifies():
    r = germain_factor(15, 3, base=3)
    w = r.certificate.witness
    assert (w["kind"], r.factors, r.ops) == ("lucky", (3, 5), 0)
    assert verify_certificate(15, r.certificate)
    wrong = Certificate(METHOD_SPARSE_EXPONENT, {**w, "divisor": 5})
    assert not verify_certificate(15, wrong)


def test_cyclotomic_mersenne_unity_path():
    budget = SearchBudget(k=2, v_max=5, t_max=4)
    r = cyclotomic_form_factor(2047, ("mersenne", 11), budget)
    assert r.factors == (23, 89)
    assert r.certificate.witness["kind"] == "unity_root"
    assert verify_certificate(2047, r.certificate)


def test_cyclotomic_direct_split_mechanics():
    # (A, B) = (1, 1): E = 2046 + 22 kills 23's order but lands on -1 mod 89
    e = 2046 + 22
    assert e % 22 == 0 and e % 88 == 44
    assert pow(3, e, 23) == 1
    assert pow(3, 44, 89) == 88
    assert math.gcd(pow(3, e, 2047) - 1, 2047) == 23

    # (A, B) = (1, 3): E = 2112 is 0 mod both orders: degenerate by design
    e = 2046 + 66
    assert e % 22 == 0 and e % 88 == 0
    assert math.gcd(pow(3, e, 2047) - 1, 2047) == 2047
    assert unity_root_recovery(3, [e], 2047) is not None


def test_cyclotomic_form_mismatch():
    budget = SearchBudget(k=2, v_max=5, t_max=4)
    with pytest.raises(ValueError, match="form mismatch"):
        cyclotomic_form_factor(2049, ("mersenne", 11), budget)
    with pytest.raises(ValueError, match="form mismatch"):
        cyclotomic_form_factor(2047, ("fermat", 3), budget)


def test_grid_driver_germain_structure():
    r = sparse_exponent_factor(253, SearchBudget(k=2, v_max=6, t_max=4))
    assert r.factors == (11, 23)
    assert r.certificate.witness["kind"] == "grid"
    assert verify_certificate(253, r.certificate)


def test_grid_driver_fermat_number():
    r = sparse_exponent_factor(4294967297, SearchBudget(k=2, v_max=8, t_max=4))
    assert r.factors == (641, 6700417)
    assert verify_certificate(4294967297, r.certificate)


def test_grid_driver_shortcuts_and_caps():
    b = SearchBudget(k=2, v_max=6, t_max=4)
    assert sparse_exponent_factor(10007, b).status == "ProbablePrime"
    assert sparse_exponent_factor(2, b).status == "TrivialInput"
    capped = SearchBudget(k=2, v_max=6, t_max=4, op_cap=2)
    r = sparse_exponent_factor(8633, capped)  # 89 * 97: resists tiny grids
    assert r.status == "Exhausted" and r.ops <= 2


def test_grid_driver_mersenne_degenerate_base_recovers():
    # base 2 has order 11 mod both factors of 2047: the first trial either
    # recovers via a unity root or abandons and a later base splits
    r = sparse_exponent_factor(2047, SearchBudget(k=2, v_max=5, t_max=4),
                               trials=6, seed=3)
    assert r.factored and r.factors == (23, 89)
    assert verify_certificate(2047, r.certificate)


def test_grid_driver_deterministic():
    b = SearchBudget(k=2, v_max=6, t_max=4)
    r1 = sparse_exp.sparse_exponent_factor(8051, b, trials=6, seed=42)
    r2 = sparse_exp.sparse_exponent_factor(8051, b, trials=6, seed=42)
    assert r1 == r2
