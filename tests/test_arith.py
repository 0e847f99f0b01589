import ctypes.util
import math
import os
import random
import subprocess
import sys
import time

from hypothesis import example, given, settings, strategies as st
import pytest

from conftest import random_prime
from reference import ref_trial_division
from sparsefactor import arith
from sparsefactor.model import result_to_dict, verify_certificate


def test_iroot_known_values():
    assert arith.iroot(448316072600119, 4) == 4601
    assert arith.iroot(16, 4) == 2
    assert arith.iroot(10403, 4) == 10
    assert 10 ** 4 <= 10403 < 11 ** 4


def test_iroot_floor_property():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.getrandbits(rng.randrange(1, 200))
        d = rng.randrange(2, 9)
        r = arith.iroot(n, d)
        assert r ** d <= n < (r + 1) ** d
    assert arith.iroot(0, 3) == 0
    assert arith.iroot(1, 5) == 1
    with pytest.raises(ValueError):
        arith.iroot(10, 1)


def test_perfect_square_known_values():
    assert 2 * 2 + 4 * 10403 == 41616
    assert arith.perfect_square(41616) == 204
    assert arith.perfect_square(0) == 0
    assert arith.perfect_square(35) is None
    assert arith.perfect_square(-4) is None


def test_perfect_square_exhaustive_against_isqrt():
    # the pre-filter must never reject a true square
    for n in range(1 << 20):
        r = math.isqrt(n)
        expect = r if r * r == n else None
        assert arith.perfect_square(n) == expect
    # r^2 modulo 4032 and 715 repeats with period lcm(2016, 715) in r, so
    # these squares meet every residue pair a square can have
    assert all(arith.perfect_square(r * r) == r for r in range(1_441_440))


def test_perfect_square_large_random():
    rng = random.Random(3)
    for _ in range(200):
        r = rng.getrandbits(150)
        assert arith.perfect_square(r * r) == r
        assert arith.perfect_square(r * r + 1) in (None, 1)  # 1 only for r=0


def test_is_probable_prime_known():
    assert arith.is_probable_prime(15402707)
    assert arith.is_probable_prime(6700417)
    assert 6700417 == (1 << 7) * 52347 + 1
    assert not arith.is_probable_prime(1)
    assert arith.is_probable_prime(2)
    assert not arith.is_probable_prime(561)    # Carmichael
    assert not arith.is_probable_prime(1105)
    assert arith.is_probable_prime((1 << 61) - 1)


def test_is_probable_prime_matches_trial_division():
    def slow_prime(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(1, 3000):
        assert arith.is_probable_prime(n) == slow_prime(n)


def test_is_probable_prime_above_word_size():
    p = 2 ** 89 - 1  # Mersenne prime
    assert arith.is_probable_prime(p)
    assert not arith.is_probable_prime(p * ((1 << 61) - 1))


def test_is_probable_prime_draws_bases_lazily(monkeypatch):
    # the seeded bases come one round at a time: a composite that fails the
    # first round draws one base, and a prime draws all 40 in order
    p = 2 ** 89 - 1
    rng = random.Random(3)
    bases = [rng.randrange(2, p - 1) for _ in range(40)]
    drawn = []

    class Recording(random.Random):
        def randrange(self, *args):
            drawn.append(super().randrange(*args))
            return drawn[-1]

    monkeypatch.setattr(arith.random, "Random", Recording)
    assert not arith.is_probable_prime(p * ((1 << 61) - 1), seed=3)
    assert len(drawn) == 1
    drawn.clear()
    assert arith.is_probable_prime(p, seed=3)
    assert drawn == bases


def _divisor_count(n):
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 2 if d * d < n else 1
    return count


def test_z_count_known_values():
    assert arith.z_count(15) == 2   # (4,1) and (8,7)
    assert 4 * 4 - 1 == 15 and 8 * 8 - 7 * 7 == 15
    assert arith.z_count(7) == 1    # only (4,3)
    assert arith.z_count(21) == 2   # (5,2) and (11,10)
    assert arith.z_count(1) == 1
    with pytest.raises(ValueError):
        arith.z_count(8)


def test_z_count_matches_divisor_pairs():
    for n in range(1, 2000, 2):
        assert arith.z_count(n) == -(-_divisor_count(n) // 2)


def test_trial_division():
    r = arith.trial_division(10403, 200)
    assert r.factored and r.factors == (101, 103)
    assert verify_certificate(10403, r.certificate)
    r = arith.trial_division(15, 3)
    assert r.factors == (3, 5)
    r = arith.trial_division(10403, 50)
    assert r.status == "Exhausted"
    r = arith.trial_division(9, 5)
    assert r.factors == (3, 3)
    with pytest.raises(ValueError):
        arith.trial_division(1, 10)


_W = arith._SEGMENT


@st.composite
def _screen_cases(draw):
    """(n, bound): n even, prime, a prime's square, with a factor below
    2^20, or a product of two primes above it; bound from below 2 up to
    10^6, log-uniform, or at a segment edge."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["even", "prime", "square", "small", "large"]))
    if kind == "even":
        n = 2 * rng.randrange(1, 1 << draw(st.integers(1, 80)))
    elif kind == "prime":
        n = random_prime(rng, draw(st.integers(2, 64)))
    elif kind == "square":
        n = random_prime(rng, draw(st.integers(2, 21))) ** 2
    elif kind == "small":
        n = (random_prime(rng, draw(st.integers(2, 20)))
             * rng.randrange(2, 1 << draw(st.integers(2, 80))))
    else:
        n = (random_prime(rng, draw(st.integers(21, 40)))
             * random_prime(rng, draw(st.integers(21, 40))))
    bound = draw(st.one_of(
        st.integers(-1, 1), st.sampled_from([_W - 1, _W, _W + 1]),
        st.integers(1, 20).flatmap(
            lambda bits: st.integers(2, min(10 ** 6, 1 << bits)))))
    return n, bound


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_screen_cases())
@example(case=(4, 50))
@example(case=(4, 200))
@example(case=(9, 50))
@example(case=(9, 200))
@example(case=(10403, 50))
@example(case=(10403, 200))
@example(case=(2, 10))
@example(case=(3, 10))
@example(case=(9973, 10_000))            # the largest prime below 10^4
@example(case=(9973 * 10007, 10_000))
@example(case=(9973 ** 2, 10_000))
@example(case=(32749 * 32771, _W - 1))   # the primes either side of W
@example(case=(32771 * 32779, _W))
@example(case=(32771 * 32779, _W + 1))
@example(case=(32771 * 32779, _W + 3))
def test_trial_division_matches_the_divisor_loop(case):
    n, bound = case
    assert (result_to_dict(arith.trial_division(n, bound))
            == result_to_dict(ref_trial_division(n, bound)))


def _segments_built(n, bound):
    arith._segment.cache_clear()
    result = arith.trial_division(n, bound)
    return result, arith._segment.cache_info().misses


def test_trial_division_visits_segments_only_up_to_the_limit_or_hit():
    # a bound of 10^15 sieves nothing up to the bound: a hit stops at its
    # own segment, and an exhausted screen stops at isqrt(n)
    rng = random.Random(24)
    q = random_prime(rng, 200)
    p, s = sorted(random_prime(rng, 20) for _ in range(2))
    r = random_prime(rng, 40)
    assert p < s
    start = time.process_time()
    result, built = _segments_built(3 * q, 10 ** 15)
    assert (result.factors, result.ops, built) == ((3, q), 2, 1)
    result, built = _segments_built(p * s, 10 ** 15)
    assert (result.factors, result.ops) == ((p, s), (p + 1) // 2)
    assert built == p // _W + 1
    result, built = _segments_built(r, 10 ** 15)
    assert result.status == "Exhausted"
    assert result.ops == 1 + (math.isqrt(r) - 1) // 2
    assert built == math.isqrt(r) // _W + 1
    assert time.process_time() - start < 1.0


def test_pollard_pm1_splits_staged():
    # 253: 11 - 1 = 10 divides the staged exponent before 23 - 1 = 22 does
    r = arith.pollard_pm1(253, 11)
    assert r.factored and r.factors == (11, 23)
    assert verify_certificate(253, r.certificate)


def test_pollard_pm1_exhaustion():
    # 100 = 2^2 * 5^2 needs the prime power 25 > 5, so bound 5 misses it
    assert arith.pollard_pm1(10403, 5).status == "Exhausted"
    assert arith.pollard_pm1(10403, 3).status == "Exhausted"
    r = arith.pollard_pm1(10403, 25)
    assert r.factored and r.factors == (101, 103)


@pytest.mark.parametrize("n,bound,uncapped", [(31, 7, 23), (703, 11, 16),
                                               (671, 5, 15)])
def test_pollard_pm1_op_cap_spans_restarts(n, bound, uncapped):
    # each degenerate base restarts, and ops adds up every base's stages
    full = arith.pollard_pm1(n, bound)
    assert full.ops == uncapped
    for cap in range(1, uncapped + 2):
        r = arith.pollard_pm1(n, bound, op_cap=cap)
        assert r.ops <= cap
        assert r == full if cap >= uncapped else r.status == "Exhausted"


def test_pollard_pm1_builds_its_stages_once_per_bound():
    arith._stages.cache_clear()
    for n in (10403, 8051, 10403):
        arith.pollard_pm1(n, 1 << 16)
    assert arith._stages.cache_info()[:2] == (2, 1)  # hits, misses
    assert arith._stages(1 << 16)[:6] == (1 << 16, 3 ** 10, 5 ** 6, 7 ** 5,
                                           11 ** 4, 13 ** 4)


def test_pollard_pm1_rejects_even():
    with pytest.raises(ValueError):
        arith.pollard_pm1(100, 5)


def test_small_primes():
    assert arith.small_primes(20) == (2, 3, 5, 7, 11, 13, 17, 19)
    assert arith.small_primes(1) == ()


def test_small_primes_match_the_numpy_sieve():
    # past segment 2, whose sieving root isqrt(3W - 1) = 313 is prime
    for limit in (2, 3, 181, _W - 1, _W, 3 * _W, 10 ** 6):
        assert arith.small_primes(limit) == tuple(
            arith.prime_array(limit).tolist()), limit


def test_prime_product_matches_small_primes():
    for limit in (-1, 0, 1, 2, 1000, _W - 1, _W, _W + 3, 1 << 16, 70_000):
        assert arith.prime_product(limit) == math.prod(
            arith.small_primes(limit))


def test_small_primes_cached_but_fresh():
    first = arith.small_primes(1 << 16)
    assert len(first) == 6542 and first[-1] == 65521
    with pytest.raises(AttributeError):
        first.append(0)  # the cached primes cannot be altered by a caller
    with pytest.raises(TypeError):
        first[-1] = 0
    assert arith.small_primes(1 << 16)[-1] == 65521
    assert arith.small_primes(1 << 16) is first


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n_bits=st.integers(3, 600), odd=st.booleans(), above_n=st.booleans(),
       e_bits=st.integers(0, 12000), rng=st.randoms(use_true_random=False))
def test_powmod_equals_builtin_pow(n_bits, odd, above_n, e_bits, rng):
    # odd and even n below 2^600, x below 2n, e below 2^12000; drawing the
    # sizes and sides first keeps every one of them in play
    n = rng.getrandbits(n_bits - 1) | 1 << (n_bits - 1)
    n = n | 1 if odd else n & -2
    x = rng.randrange(n) + above_n * n
    e = rng.getrandbits(e_bits)
    assert arith._powmod(x, e, n) == pow(x, e, n)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 1 << 64, (1 << 521) - 1])
def test_powmod_edge_rows(n):
    for x in (0, 1, n - 1, n, 2 * n - 1):
        for e in (0, 1, 2, 3, (1 << 200) + 1):
            assert arith._powmod(x, e, n) == pow(x, e, n), (x, e)


class _StandInGmp:
    """A stand-in library whose every function records its own name."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name)


def test_gmp_kernel_checks_arguments_before_calling_gmp():
    # GMP aborts the process on a zero modulus, so the kernel must refuse
    # bad arguments itself; a stand-in library records what it is asked
    calls = []
    kernel = arith._gmp_powmod(_StandInGmp(calls))
    assert calls == ["__gmpz_init"] * 3
    for x, e, n in [(2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 3, -7), (2, -1, 7),
                    (-1, 3, 7)]:
        with pytest.raises(ValueError):
            kernel(x, e, n)
    assert calls == ["__gmpz_init"] * 3
    kernel(2, 3, 7)
    assert calls[3:] == ["__gmpz_import"] * 3 + ["__gmpz_powm",
                                                  "__gmpz_export"]


def _refuse_to_load(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("found, cdll", [(None, None),
                                         ("libgmp.so.10", _refuse_to_load)])
def test_powmod_loader_falls_back_to_builtin_pow(monkeypatch, found, cdll):
    monkeypatch.setattr(arith, "_gmp_names",
                        lambda: iter([] if found is None else [found]))
    if cdll is not None:
        monkeypatch.setattr(arith.ctypes, "CDLL", cdll)
    assert arith._load_powmod() is pow


def test_powmod_loader_takes_the_first_name_that_loads(monkeypatch):
    tried = []

    def load(name):
        tried.append(name)
        if name != "libgmp.so":
            _refuse_to_load(name)
        return _StandInGmp([])

    monkeypatch.setattr(arith, "_gmp_names",
                        lambda: iter(["libgmp.so.10", "libgmp.so", "later"]))
    monkeypatch.setattr(arith.ctypes, "CDLL", load)
    assert arith._load_powmod().library == "libgmp.so"
    assert tried == ["libgmp.so.10", "libgmp.so"]


def test_gmp_names_ask_find_library_only_after_the_sonames(monkeypatch):
    asked = []
    monkeypatch.setattr(ctypes.util, "find_library",
                        lambda name: asked.append(name) or "libgmp-found.so")
    names = arith._gmp_names()
    assert [next(names) for _ in range(3)] == ["libgmp.so.10", "libgmp.so",
                                               "libgmp.dylib"]
    assert asked == []
    assert list(names) == ["libgmp-found.so"] and asked == ["gmp"]
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    assert list(arith._gmp_names())[3:] == []


def test_import_loads_ctypes_util_only_without_a_soname():
    # a fresh interpreter: ctypes.util comes in only when find_library is
    # needed, which is when no soname loaded
    code = ("import sys, sparsefactor.cli; "
            "from sparsefactor.arith import _powmod; "
            "print(getattr(_powmod, 'library', None), "
            "'ctypes.util' in sys.modules)")
    src = os.path.dirname(os.path.dirname(arith.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True,
                         timeout=60).stdout.split()
    sonames = ("libgmp.so.10", "libgmp.so", "libgmp.dylib")
    assert out[0] == getattr(arith._powmod, "library", "None")
    assert out[1] == str(out[0] not in sonames)
