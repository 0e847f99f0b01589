import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_prime, random_semiprime
from reference import ref_audit_known, ref_smooth_part
from sparsefactor import weakset
from sparsefactor.arith import iroot, is_probable_prime, small_primes
from sparsefactor.expansions import naf, weight
from sparsefactor.model import GenerationError, SearchBudget, report_to_dict
from sparsefactor.weakset import WeakClassSpec, audit, generate_weak

# the 21 balanced companions of p = 101 with sparse differences
COMPANIONS_OF_101 = (103, 107, 109, 113, 119, 127, 131, 137, 139, 143, 149,
                     151, 157, 163, 167, 173, 179, 181, 193, 197, 199)


def test_companion_table_sparse_differences():
    assert len(COMPANIONS_OF_101) == 21
    for q in COMPANIONS_OF_101:
        digits = naf(q - 101)
        assert weight(q - 101) <= 3, q
        assert all(e <= 7 for _, e in digits.terms), q


def test_spec_validation():
    with pytest.raises(ValueError):
        WeakClassSpec("e")
    with pytest.raises(ValueError):
        WeakClassSpec("g", k=0)
    with pytest.raises(ValueError, match="v_max"):
        WeakClassSpec("g", v_max=-1)


@pytest.mark.parametrize("class_id,bits,kwargs", [
    ("a", 64, {}),
    ("b", 64, {}),
    ("c", 96, {}),
    ("d", 96, {"k": 4}),
    ("f", 96, {"k": 4}),
    ("g", 96, {"k": 3}),
])
def test_generate_audit_round_trip(class_id, bits, kwargs):
    spec = WeakClassSpec(class_id, **kwargs)
    rows = generate_weak(spec, bits, 4, seed=17)
    assert len(rows) == 4
    for n, p, q, report in rows:
        assert p * q == n and p < q < 2 * p
        assert is_probable_prime(p) and is_probable_prime(q)
        assert class_id in report.classes
        assert abs(n.bit_length() - bits) <= 3


def test_generate_deterministic():
    spec = WeakClassSpec("g", k=2)
    a = generate_weak(spec, 64, 3, seed=9)
    b = generate_weak(spec, 64, 3, seed=9)
    assert [(n, p, q) for n, p, q, _ in a] == [(n, p, q) for n, p, q, _ in b]
    c = generate_weak(spec, 64, 3, seed=10)
    assert a[0][0] != c[0][0]


def test_generate_class_g_weights():
    rows = generate_weak(WeakClassSpec("g", k=3), 128, 5, seed=1)
    for n, p, q, _ in rows:
        assert weight(q - p) <= 3


def test_generate_class_b_gap():
    rows = generate_weak(WeakClassSpec("b"), 64, 5, seed=2)
    for n, p, q, _ in rows:
        assert q - p <= iroot(n, 4)


def test_random_sparse_stays_within_v_max():
    # max_weight 3 at v_max 3 once fell back to 2^0 +- 2^2 +- 2^4
    rng = random.Random(5)
    for max_weight in (1, 2, 3, 4):
        for v_max in range(0, 9):
            for _ in range(300):
                val = weakset._random_sparse(rng, max_weight, v_max)
                terms = naf(val).terms
                assert val > 0 and terms[0][0] == 1
                assert terms[0][1] <= v_max and len(terms) <= max_weight


def test_generate_infeasible():
    with pytest.raises(GenerationError):
        generate_weak(WeakClassSpec("g"), 8, 1, seed=1)


def test_class_b_round_trips_through_classic_scan():
    from sparsefactor.fermat import classic_fermat, step_count_bound
    for n, p, q, _ in generate_weak(WeakClassSpec("b"), 64, 4, seed=23):
        bound = step_count_bound(n, p)
        r = classic_fermat(n, bound + 1)
        assert r.factored and r.factors == (p, q)


def test_class_d_round_trips_through_sparse_scan():
    from sparsefactor.fermat import extended_fermat_sparse
    for k, seed in ((1, 24), (2, 25)):
        rows = generate_weak(WeakClassSpec("d", k=k), 96, 3, seed=seed)
        for n, p, q, report in rows:
            budget = SearchBudget(k=k, v_max=n.bit_length() // 4,
                                  t_max=1024)
            r = extended_fermat_sparse(n, budget)
            assert r.factored and r.factors == (p, q), (n, report.witnesses)


def test_audit_small_semiprime():
    report = audit(10403, (101, 103))
    assert report.classes == frozenset("bg")
    assert report.witnesses["g"]["difference"] == 2
    assert report.witnesses["b"]["difference"] == 2


def test_audit_reference_semiprime():
    report = audit(448316072600119, (15402707, 29106317))
    assert "d" in report.classes
    assert "b" not in report.classes
    assert "g" not in report.classes
    d = report.witnesses["d"]
    assert d["a"] == 1724 and weight(1724) == 4


def test_audit_rsa_style_negative():
    rng = random.Random(40)
    p = random_prime(rng, 256)
    q = random_prime(rng, 256)
    if p > q:
        p, q = q, p
    if q >= 2 * p:  # rare; resample deterministically
        q = random_prime(rng, 256)
        p, q = min(p, q), max(p, q)
    n = p * q
    budget = SearchBudget(k=5, v_max=n.bit_length() // 2, t_max=4096)
    report = audit(n, (p, q), budget)
    assert report.classes == frozenset()


def test_audit_requires_consistent_factors():
    with pytest.raises(ValueError):
        audit(10403, (101, 107))
    with pytest.raises(ValueError):
        audit(9)


@pytest.mark.parametrize("factors", [(1, 15), (15, 1), (-3, -5)])
def test_audit_rejects_trivial_or_negative_factors(factors):
    # (1, 15) once sent the class-a smoothness check into an endless loop
    with pytest.raises(ValueError, match="exceed 1"):
        audit(15, factors)


@pytest.mark.parametrize("n, factors", [(16, None), (16, (2, 8)),
                                        (10007, None)])
def test_audit_rejects_even_or_prime_n(n, factors):
    # 16 once audited to classes a, c, d, f, g, and the prime 10007 to
    # "not detected under budget"
    with pytest.raises(ValueError, match="odd number|probable prime"):
        audit(n, factors)


def test_audit_blind_detects_sparse_difference():
    rows = generate_weak(WeakClassSpec("g", k=2), 64, 1, seed=21)
    n, p, q, _ = rows[0]
    report = audit(n)  # no factors supplied
    assert "g" in report.classes
    assert report.witnesses["meta"]["detected_by"] == "SparseDifference"


def test_audit_blind_exhaustion_is_not_a_verdict():
    rng = random.Random(41)
    p = random_prime(rng, 96)
    q = random_prime(rng, 96)
    report = audit(p * q, budget=SearchBudget(k=2, v_max=24, t_max=64,
                                              op_cap=2000))
    assert report.classes == frozenset()
    assert "not detected" in report.witnesses["meta"]["note"]


def _fermat_pairs_brute(x):
    primes = small_primes(x // 3)[1:]
    f = b = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            n = p * q
            if n > x:
                break
            if q < 2 * p:
                b += 1
            if q - p <= iroot(n, 4):
                f += 1
    return f, b


def test_fermat_count_brute_oracle():
    for x in (100, 3000, 20000):
        f, b, ratio = weakset.fermat_count(x)
        assert (f, b) == _fermat_pairs_brute(x)
    assert weakset.fermat_count(100)[:2] == (1, 4)


def test_fermat_count_recount_stable():
    assert weakset.fermat_count(10 ** 4) == weakset.fermat_count(10 ** 4)


def test_fermat_count_multiplier_widens():
    f1, _, _ = weakset.fermat_count(10 ** 5)
    f2, _, _ = weakset.fermat_count(10 ** 5, multiplier=2)
    assert f2 > f1


def test_fermat_ratio_decreases():
    r1 = weakset.fermat_count(10 ** 4)[2]
    r2 = weakset.fermat_count(10 ** 5)[2]
    assert r2 < r1


def _romanoff_brute(x):
    hits = set()
    for p in small_primes(x):
        v = 1
        while p + v <= x:
            hits.add(p + v)
            v <<= 1
    return len(hits)


def test_romanoff_known_and_brute():
    assert weakset.romanoff_count(20) == _romanoff_brute(20) == 17
    assert weakset.romanoff_count(2) == 0
    for x in (100, 5000):
        assert weakset.romanoff_count(x) == _romanoff_brute(x)


def test_romanoff_density_window():
    for x in (10 ** 4, 10 ** 5):
        ratio = weakset.romanoff_count(x) / x
        assert 0.1866 <= ratio <= 0.9819


def test_balanced_bounds_check():
    assert weakset.balanced_bounds_check(101, 103, 2)
    assert weakset.balanced_bounds_check(15402707, 29106317, 2)
    assert not weakset.balanced_bounds_check(7, 7, 2)
    assert not weakset.balanced_bounds_check(3, 7, 2)
    assert not weakset.balanced_bounds_check(103, 101, 2)
    with pytest.raises(ValueError):
        weakset.balanced_bounds_check(3, 5, 1)


def test_balanced_bounds_match_float_estimates():
    rng = random.Random(42)
    for _ in range(40):
        p = random_prime(rng, 24)
        q = random_prime(rng, 24)
        p, q = min(p, q), max(p, q)
        if p == q or q >= 2 * p:
            continue
        n = p * q
        expect = (math.sqrt(n / 2) < p < math.sqrt(n) < q < math.sqrt(2 * n)
                  and 2 * math.sqrt(n) < p + q < 1.5 * math.sqrt(2 * n)
                  and q - p < (math.sqrt(2) - 1 / math.sqrt(2)) * math.sqrt(n))
        assert weakset.balanced_bounds_check(p, q, 2) == expect


def test_alpha_measurement_reported():
    report = audit(448316072600119, (15402707, 29106317))
    alpha = report.witnesses["meta"]["alpha"]
    n, p = 448316072600119, 15402707
    expect = ((math.log2(math.isqrt(n) - p) - math.log2(iroot(n, 4)))
              / math.log2(n))
    assert abs(alpha - expect) < 1e-9


def test_audit_blind_reports_only_confirmed_classes():
    # q - p > 2^20 is far beyond N^(1/4) = 3365, so class b does not hold,
    # although BSGS (the class-b engine) is what splits this N
    n, p, q = 128306122089773, 8725039, 14705507
    assert p * q == n and q - p > iroot(n, 4)
    report = audit(n)
    assert report.witnesses["meta"]["detected_by"] == "BsgsFermat"
    assert report.classes == audit(n, (p, q)).classes
    assert "b" not in report.classes


@st.composite
def _known_factor_cases(draw):
    """(n, p, q): random balanced, twin-like, or a generated weak instance."""
    kind = draw(st.sampled_from(["random", "near", "weak"]))
    seed = draw(st.integers(0, 1 << 32))
    if kind == "weak":
        spec = WeakClassSpec(draw(st.sampled_from(sorted(weakset.CLASSES))))
        bits = draw(st.integers(32, 128))
        n, p, q, _ = generate_weak(spec, bits, 1, seed)[0]
        return n, p, q
    bits = draw(st.integers(32, 256))
    max_gap = draw(st.integers(4, 1 << 12)) if kind == "near" else None
    return random_semiprime(random.Random(seed), bits, max_gap)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_known_factor_cases(), k=st.integers(1, 5))
@example(case=(81161, 277, 293), k=1)           # q - p = N^(1/4) exactly
@example(case=(825166891, 27479, 30029), k=2)   # class d's tie-break decides
def test_audit_known_matches_class_by_class_reference(case, k):
    n, p, q = case
    budget = SearchBudget.default_for(n, k=k)
    assert (report_to_dict(audit(n, (p, q), budget))
            == report_to_dict(ref_audit_known(n, p, q, budget)))


@st.composite
def _smoothness_cases(draw):
    """(m, bound): m of 32 to 512 bits, a product of primes <= bound, such a
    product times one prime above it, or drawn at random."""
    rng = draw(st.randoms(use_true_random=False))
    bound = 1 << draw(st.integers(2, 16))
    bits = draw(st.integers(32, 512))
    kind = draw(st.sampled_from(["smooth", "one_above", "random"]))
    if kind == "random":
        return rng.getrandbits(bits) | 1 << (bits - 1), bound
    primes = small_primes(bound)
    m = 1 if kind == "smooth" else next(
        p for p in small_primes(2 * bound + 2) if p > bound)
    while m.bit_length() < bits:
        m *= rng.choice(primes)
    return m, bound


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_smoothness_cases())
def test_smooth_matches_the_division_loop(case):
    m, bound = case
    assert weakset._smooth(m, bound) == (
        ref_smooth_part(m, small_primes(bound)) == 1)


@pytest.mark.parametrize("bound", [4, 1 << 16])
def test_smooth_on_prime_powers(bound):
    # the primorial holds 2 and 3 once each, so 2^e needs its e-th power;
    # 5 * 3^e is not 4-smooth
    powers = [2 ** e for e in range(1, 513)] + [3 ** e for e in range(1, 324)]
    for m in powers + [5 * m for m in powers]:
        assert weakset._smooth(m, bound) == (
            ref_smooth_part(m, small_primes(bound)) == 1), (m, bound)
