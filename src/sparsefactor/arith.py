"""Arbitrary-precision arithmetic primitives shared by all engines.

Everything here is exact integer arithmetic; no floating point touches any
value that feeds a factorization decision.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import random
import threading
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .model import (
    Certificate,
    FactorResult,
    METHOD_POLLARD_PM1,
    METHOD_TRIAL_DIVISION,
    exhausted,
    factored,
    probable_prime,
    trivial_or_even,
)


def isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def iroot(n: int, d: int) -> int:
    """Floor d-th root of n, d >= 2, by integer Newton iteration."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)  # >= true root
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    while x ** d > n:
        x -= 1
    return x


# The residue filter.  x is a square modulo 4032 = 64 * 63 and modulo
# 715 = 65 * 11 exactly when, by the CRT, it is one modulo 64, 63, 65 and
# 11; together they reject > 99% of non-squares before the isqrt check.
# SIEVE_MODULUS is their product: reducing a value by it once keeps every
# residue exact at any size.
_SIEVE_MODULI = (64 * 63, 65 * 11)
SIEVE_MODULUS = 64 * 63 * 65 * 11
# Longest run of consecutive x one sieve lookup covers.
SIEVE_BLOCK = 4096


def _residue_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """i^2 mod m for i < m, and flags whose entry r < 2m says whether
    r mod m is a square modulo m."""
    squares = np.arange(m) ** 2 % m
    flags = np.zeros(2 * m, dtype=bool)
    flags[squares] = flags[squares + m] = True
    return squares, flags


_RESIDUE_TABLES = tuple(map(_residue_tables, _SIEVE_MODULI))
# The same flags as bytes, for one lookup per modulus on a Python int.
_IS_SQUARE_4032, _IS_SQUARE_715 = (flags.tobytes()
                                   for _, flags in _RESIDUE_TABLES)
# entry i of term m: i times the e = 1 modulo m and 0 modulo the other
# modulus, reduced modulo SIEVE_MODULUS (the CRT)
_CRT_TERMS = tuple(
    (np.arange(m) * (SIEVE_MODULUS // m * pow(SIEVE_MODULUS // m, -1, m))
     % SIEVE_MODULUS).astype(np.uintc) for m in _SIEVE_MODULI)


def perfect_square(n: int):
    """Return r with r*r == n, or None.

    The modular pre-filter is sound: it never rejects a true square.
    """
    if n < 0 or not _IS_SQUARE_4032[n % 4032] or not _IS_SQUARE_715[n % 715]:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


class SquareSieve:
    """Residue sieve for "is x*x - c a perfect square?" over runs of x.

    Whether x^2 - c is a square modulo m depends only on x mod m, so one
    table per modulus of the filter above, 4032 and 715, repeated out to
    m + SIEVE_BLOCK entries, answers it for SIEVE_BLOCK consecutive x as
    one slice (ascending), or for any x by its residues (values).  window
    reads the sorted list of survivors modulo SIEVE_MODULUS, built from the
    two tables by the CRT at its first call, so each run costs two bisects
    and no numpy call.  Like perfect_square the sieve never rejects a true
    square: survivors still need the exact check, root().  Knuth, TAOCP
    vol. 2, 4.5.4; McKee, "Speeding Fermat's factoring method", Math. Comp.
    68 (1999).
    """

    def __init__(self, c: int):
        self.c = c
        tables = []
        for m, (squares, flags) in zip(_SIEVE_MODULI, _RESIDUE_TABLES):
            shift = m - c % m
            # period[i]: is (i^2 - c) mod m a square?
            period = flags[shift:shift + m][squares]
            table = np.empty((SIEVE_BLOCK // m + 2, m), dtype=bool)
            table[:] = period
            tables.append((m, table.ravel()))
        self._tables = tuple(tables)
        self._survivors = None

    def ascending(self, x0: int, count: int) -> np.ndarray:
        """Ascending j < count (at most SIEVE_BLOCK) where x0 + j survives."""
        (m1, t1), (m2, t2) = self._tables
        i, j = x0 % m1, x0 % m2
        return np.flatnonzero(t1[i:i + count] & t2[j:j + count])

    def window(self, lo: int, count: int) -> list[int]:
        """Ascending x in [lo, lo + count) that survive; count is at most
        SIEVE_MODULUS."""
        if self._survivors is None:
            self._survivors = self._crt_survivors()
        rs, m = self._survivors, SIEVE_MODULUS
        r = lo % m
        base, i = lo - r, bisect_left(rs, r)
        if r + count <= m:
            return [base + s for s in rs[i:bisect_left(rs, r + count, i)]]
        return ([base + s for s in rs[i:]]
                + [base + m + s for s in rs[:bisect_left(rs, r + count - m)]])

    def _crt_survivors(self) -> array:
        """The residues modulo SIEVE_MODULUS that survive, ascending: the
        sums of a survivor's CRT terms modulo 4032 and 715, reduced."""
        (m1, t1), (m2, t2) = self._tables
        r = np.add.outer(_CRT_TERMS[0][t1[:m1]], _CRT_TERMS[1][t2[:m2]]).ravel()
        # r < 2 * SIEVE_MODULUS, and r - SIEVE_MODULUS wraps above r when
        # r < SIEVE_MODULUS
        np.minimum(r, r - np.uintc(SIEVE_MODULUS), out=r)
        r.sort()
        return array("I", r.tobytes())

    def values(self, residues: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Survival mask of x, given sieve_residues of x."""
        (_, t1), (_, t2) = self._tables
        return t1.take(residues[0]) & t2.take(residues[1])

    def root(self, x: int):
        """Exact y with y*y == x*x - c, or None.  For survivors: the
        residue test is the sieve's own, so none is repeated here."""
        d = x * x - self.c
        if d < 0:
            return None
        y = math.isqrt(d)
        return y if y * y == d else None


def sieve_residues(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x mod 4032 and x mod 715 as uint16, for SquareSieve.values."""
    return tuple((x % m).astype(np.uint16) for m in _SIEVE_MODULI)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# These twelve bases decide primality for every n < 3.3e24, which covers
# the whole 64-bit range the deterministic branch is specified for.
_DETERMINISTIC_LIMIT = 1 << 64


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, seed: int = 0) -> bool:
    """Miller-Rabin: deterministic witnesses below 2**64, 40 rounds above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _DETERMINISTIC_LIMIT:
        bases = _SMALL_PRIMES
    else:
        rng = random.Random(seed)
        # drawn lazily: a composite usually fails the first round
        bases = (rng.randrange(2, n - 1) for _ in range(40))
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


def preamble(n: int, seed: int) -> Optional[FactorResult]:
    """A method's answer before its search: TrivialInput below 3, the
    divisor-2 split at 0 ops, ProbablePrime; None for an odd composite."""
    early = trivial_or_even(n)
    if early is None and is_probable_prime(n, seed):
        early = probable_prime()
    return early


def prime_array(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, by a sieve of Eratosthenes on numpy."""
    limit = max(limit, 1)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


# Width of a prime segment: segment j holds the primes in [jW, (j+1)W).
_SEGMENT = 1 << 15


@lru_cache(maxsize=64)
def _segment(j: int) -> tuple[tuple[int, ...], int]:
    """The primes in segment j, ascending, and their product.

    A sieve of Eratosthenes on the segment alone, by the primes up to the
    square root of its end.  For j >= 1 that root is below jW, and for
    j < W below W, so segment 0 holds those primes; beyond it small_primes
    reads them from earlier segments.  Taking them from segment 0 keeps a
    trial division's segments out of small_primes' cache.
    """
    lo, hi = j * _SEGMENT, (j + 1) * _SEGMENT
    flags = bytearray(b"\1") * _SEGMENT
    root = math.isqrt(hi - 1)
    if j == 0:
        flags[:2] = b"\0\0"
        base = (p for p in range(2, root + 1) if flags[p])
    elif root < _SEGMENT:
        base = itertools.takewhile(root.__ge__, _segment(0)[0])
    else:
        base = small_primes(root)
    for p in base:
        start = max(p * p, -(-lo // p) * p) - lo
        flags[start::p] = bytes(len(range(start, _SEGMENT, p)))
    primes = tuple(itertools.compress(range(lo, hi), flags))
    return primes, _product(primes)


def _product(values: Iterable[int]) -> int:
    """math.prod by a product tree: neighbours multiply pairwise, so most
    products are of small numbers (a segment's in a third of the time)."""
    values = list(values)
    while len(values) > 1:
        odd = values.pop() if len(values) % 2 else 1
        values = list(map(int.__mul__, values[::2], values[1::2]))
        values[-1] *= odd
    return values[0] if values else 1


@lru_cache(maxsize=16)
def small_primes(limit: int) -> tuple[int, ...]:
    """Primes <= limit, ascending, as one cached tuple per limit."""
    segments = (_segment(j)[0] for j in range(max(limit, 0) // _SEGMENT + 1))
    return tuple(itertools.takewhile(limit.__ge__,
                                     itertools.chain.from_iterable(segments)))


@lru_cache(maxsize=16)
def prime_product(limit: int) -> int:
    """The product of the primes <= limit, from the cached segment
    products."""
    whole = max(limit + 1, 0) // _SEGMENT  # segments wholly <= limit
    tail = (p for p in _segment(whole)[0] if p <= limit)
    return math.prod(_segment(j)[1] for j in range(whole)) * _product(tail)


def z_count(n: int) -> int:
    """Number of representations n = x^2 - y^2 with x > y >= 0.

    Brute force over the nontrivial window plus the trivial split 1*n;
    desk scale only (the window has ~n/6 candidates).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    sols = set()
    x = isqrt_ceil(n)
    stop = (n + 9) // 6
    while x <= stop:
        y = perfect_square(x * x - n)
        if y is not None:
            sols.add((x, y))
        x += 1
    sols.add(((n + 1) // 2, (n - 1) // 2))
    return len(sols)


def trial_division(n: int, bound: int) -> FactorResult:
    """Trial division by 2, 3, 5, 7, 9, ... up to min(bound, isqrt(n)).

    `ops` counts those candidates up to the first divisor, which is n's
    least prime factor d: (d + 1) // 2 of them.  n is never divided by the
    candidates one by one: one gcd of n with the product of a prime segment
    finds whether d lies in it, segment by segment in order, and only the
    segments up to the limit or the hit are built.  d is then the first
    prime of its segment that divides the gcd.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    limit = min(bound, math.isqrt(n))
    if limit < 2:
        return exhausted(0)
    for j in range(limit // _SEGMENT + 1):
        primes, product = _segment(j)
        g = math.gcd(n, product)
        if g > 1:
            d = next(p for p in primes if g % p == 0)
            if d > limit:
                break
            cert = Certificate(METHOD_TRIAL_DIVISION, {"divisor": d})
            return factored(d, n // d, cert, (d + 1) // 2)
    return exhausted((limit + 1) // 2)


class _Mpz(ctypes.Structure):
    """GMP's mpz_t: limbs allocated, signed limbs used, limb pointer."""
    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_void_p)]


def _gmp_powmod(gmp) -> Callable[[int, int, int], int]:
    """pow(x, e, n) on libgmp's mpz_powm, given the loaded library.

    Three mpz registers are set up once and reused under a lock, since
    ctypes releases the GIL during each call.  Ints cross as little-endian
    bytes.  The arguments are checked here because GMP aborts the whole
    process on a zero modulus.
    """
    mpz = ctypes.POINTER(_Mpz)
    size_t, c_int, buf = ctypes.c_size_t, ctypes.c_int, ctypes.c_char_p
    init, load, powm, store = (gmp.__gmpz_init, gmp.__gmpz_import,
                               gmp.__gmpz_powm, gmp.__gmpz_export)
    init.argtypes = [mpz]
    load.argtypes = [mpz, size_t, c_int, size_t, c_int, size_t, buf]
    powm.argtypes = [mpz, mpz, mpz, mpz]
    store.argtypes = [buf, ctypes.POINTER(size_t), c_int, size_t, c_int,
                      size_t, mpz]
    init.restype = load.restype = powm.restype = None
    store.restype = ctypes.c_void_p
    registers = x_reg, e_reg, n_reg = _Mpz(), _Mpz(), _Mpz()
    for reg in registers:
        init(reg)
    count = size_t()
    lock = threading.Lock()

    def powmod(x: int, e: int, n: int) -> int:
        if n < 3 or e < 0 or x < 0:
            raise ValueError("_powmod needs x >= 0, e >= 0 and n >= 3")
        out = ctypes.create_string_buffer((n.bit_length() + 7) // 8)
        with lock:
            for reg, v in zip(registers, (x, e, n)):
                size = (v.bit_length() + 7) // 8
                load(reg, size, -1, 1, 0, 0, v.to_bytes(size, "little"))
            powm(x_reg, x_reg, e_reg, n_reg)
            store(out, count, -1, 1, 0, 0, x_reg)
            return int.from_bytes(out.raw[:count.value], "little")

    return powmod


def _gmp_names() -> Iterator[str]:
    """Names to load libgmp by: its usual sonames, then the path that
    ctypes.util.find_library gives, looked up only when none of them loads.
    Importing ctypes.util and find_library's one `ldconfig -p` cost about
    7 ms (2.1 GHz Xeon); loading by soname costs 0.3 ms."""
    yield from ("libgmp.so.10", "libgmp.so", "libgmp.dylib")
    import ctypes.util
    path = ctypes.util.find_library("gmp")
    if path is not None:
        yield path


def _load_powmod() -> Callable[[int, int, int], int]:
    """The GMP kernel on the first of _gmp_names that loads, else builtin
    pow.

    Both compute the same exact integer, so nothing downstream can tell
    them apart; the kernel's `library` attribute names what it loaded.
    """
    for name in _gmp_names():
        try:
            gmp = ctypes.CDLL(name)
        except OSError:
            continue
        kernel = _gmp_powmod(gmp)
        kernel.library = name
        return kernel
    return pow


# Modular power for _batched_powers.  The GMP kernel's ctypes calls cost
# about 9 us on top of mpz_powm (2.1 GHz Xeon), more than a builtin pow by
# a 16-bit exponent modulo 256 bits takes in all, so the walk batches its
# exponents.  Miller-Rabin does not use the kernel: each of its rounds
# raises to d ~ N, a full-size exponent, on builtin pow.
_powmod = _load_powmod()

POW_BATCH = 64  # exponents per _powmod in _batched_powers


def _batched_powers(x: int, n: int,
                    exponents: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Raise x by each exponent in turn modulo n; yield (steps, power).

    steps counts the exponents applied so far.  Each run of POW_BATCH
    exponents takes one _powmod by its product.  Once x is +-1 modulo a prime
    p | n, every later power of x is too, so when the run's last value y
    has gcd(y^2 - 1, n) == 1, no step of the run has gcd(x -+ 1, n) > 1,
    and only y is yielded.  Any other run is replayed from its start and
    every step is yielded: a caller that tests each value it is given stops
    where a test after every step would, and a false flag, such as
    y = -1 (mod n), only costs a replay.
    """
    steps = 0
    exponents = iter(exponents)
    while batch := list(itertools.islice(exponents, POW_BATCH)):
        y = _powmod(x, math.prod(batch), n)
        if math.gcd(y * y - 1, n) == 1:
            x = y
            steps += len(batch)
            yield steps, x
            continue
        for e in batch:
            x = _powmod(x, e, n)
            steps += 1
            yield steps, x


@lru_cache(maxsize=16)
def _stages(bound: int) -> tuple[int, ...]:
    """p-1's stage exponents: the largest power <= bound of each prime."""
    stages = []
    for p in small_primes(bound):
        pe = p
        while pe * p <= bound:
            pe *= p
        stages.append(pe)
    return tuple(stages)


def pollard_pm1(n: int, smoothness_bound: int, t: int = 2,
                op_cap: Optional[int] = None) -> FactorResult:
    """Stage-wise p-1 method: exponent = product of prime powers <= bound.

    Each stage raises x to one prime power, and the first power with
    gcd(x - 1, N) != 1 stops the walk; _batched_powers skips the gcds that
    cannot stop it.  A split survives even when the full exponent would
    kill both factors at once.  `ops` counts prime stages, summed over the
    bases: a degenerate gcd == n restarts with the next base, at most 8 in
    all.  The stages past op_cap are never run.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    stages = _stages(smoothness_bound)
    ops = 0
    base = t
    for _ in range(8):
        g = math.gcd(base, n)
        if not 1 < g < n:  # else lucky: the base itself shares a factor
            start = ops
            left = None if op_cap is None else op_cap - ops
            for steps, x in _batched_powers(base % n, n,
                                            itertools.islice(stages, left)):
                ops = start + steps
                g = math.gcd(x - 1, n)
                if g != 1:
                    break
            else:
                return exhausted(ops)
        if g < n:
            cert = Certificate(
                METHOD_POLLARD_PM1,
                {"base": base, "bound": smoothness_bound, "divisor": g})
            return factored(g, n // g, cert, ops)
        base += 1  # degenerate: gcd == n
        while base % 2 == 0 or base == n:
            base += 1
    return exhausted(ops)
