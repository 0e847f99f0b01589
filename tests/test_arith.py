import math
import random

from hypothesis import given, settings, strategies as st
import pytest

from sparsefactor import arith
from sparsefactor.model import verify_certificate


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


def test_pollard_pm1_rejects_even():
    with pytest.raises(ValueError):
        arith.pollard_pm1(100, 5)


def test_small_primes():
    assert arith.small_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert arith.small_primes(1) == []


def test_small_primes_cached_but_fresh():
    first = arith.small_primes(1 << 16)
    assert len(first) == 6542 and first[-1] == 65521
    first.append(0)  # callers own the list they get back
    assert arith.small_primes(1 << 16)[-1] == 65521
    assert arith.small_primes(1 << 16) is not arith.small_primes(1 << 16)


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


def test_gmp_kernel_checks_arguments_before_calling_gmp():
    # GMP aborts the process on a zero modulus, so the kernel must refuse
    # bad arguments itself; a stand-in library records what it is asked
    calls = []

    class StandIn:
        def __getattr__(self, name):
            return lambda *args: calls.append(name)

    kernel = arith._gmp_powmod(StandIn())
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
    monkeypatch.setattr(arith.ctypes.util, "find_library", lambda name: found)
    if cdll is not None:
        monkeypatch.setattr(arith.ctypes, "CDLL", cdll)
    assert arith._load_powmod() is pow
