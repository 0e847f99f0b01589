"""Arbitrary-precision arithmetic primitives shared by all engines.

Everything here is exact integer arithmetic; no floating point touches any
value that feeds a factorization decision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .model import (
    Certificate,
    FactorResult,
    METHOD_POLLARD_PM1,
    METHOD_TRIAL_DIVISION,
    exhausted,
    factored,
)


@dataclass(frozen=True)
class OddInteger:
    """A positive odd integer >= 3, validated once at the boundary."""

    value: int

    def __post_init__(self):
        if self.value < 3 or self.value % 2 == 0:
            raise ValueError("need an odd integer >= 3")


def isqrt(n: int) -> int:
    """Floor square root; exact for any nonnegative integer."""
    return math.isqrt(n)


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


def _square_residue_mask(m: int) -> int:
    mask = 0
    for i in range(m):
        mask |= 1 << (i * i % m)
    return mask


# Quadratic-residue bitmasks: together they reject > 99% of non-squares
# before the isqrt confirmation.
_MASK64 = _square_residue_mask(64)
_MASK63 = _square_residue_mask(63)
_MASK65 = _square_residue_mask(65)
_MASK11 = _square_residue_mask(11)


def perfect_square(n: int):
    """Return r with r*r == n, or None.

    The modular pre-filter is sound: it never rejects a true square.
    """
    if n < 0:
        return None
    if not (_MASK64 >> (n & 63)) & 1:
        return None
    if not (_MASK63 >> (n % 63)) & 1:
        return None
    if not (_MASK65 >> (n % 65)) & 1:
        return None
    if not (_MASK11 >> (n % 11)) & 1:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# The same four moduli drive the scan sieve.  SIEVE_MODULUS is their product:
# reducing a value by it once keeps every residue exact at any size.
_SIEVE_MODULI = (64, 63, 65, 11)
SIEVE_MODULUS = 64 * 63 * 65 * 11
# Longest run of consecutive x one sieve lookup covers.
SIEVE_BLOCK = 4096


def _square_flags_twice(m: int, mask: int) -> np.ndarray:
    # entry r (r < 2m) says whether r mod m is a square modulo m
    return np.array([(mask >> (r % m)) & 1 for r in range(2 * m)], dtype=bool)


# Per modulus: i^2 mod m for i < m, and the doubled square flags.
_SQUARES_OF = tuple(np.arange(m) ** 2 % m for m in _SIEVE_MODULI)
_IS_SQUARE_TWICE = tuple(
    _square_flags_twice(m, mask)
    for m, mask in zip(_SIEVE_MODULI, (_MASK64, _MASK63, _MASK65, _MASK11)))


class SquareSieve:
    """Residue sieve for "is x*x - c a perfect square?" over runs of x.

    Whether x^2 - c is a square modulo m depends only on x mod m, so one
    small table per modulus, repeated out to m + SIEVE_BLOCK entries,
    answers it for SIEVE_BLOCK consecutive x as one slice.  Since
    (-x)^2 = x^2, the same slice taken at -x0 mod m covers x0, x0 - 1, ...
    Like the filter in perfect_square the sieve never rejects a true
    square: survivors still need the exact check, root().  Knuth, TAOCP
    vol. 2, 4.5.4; McKee, "Speeding Fermat's factoring method", Math. Comp.
    68 (1999).
    """

    def __init__(self, c: int):
        self.c = c
        tables = []
        for m, squares, flags in zip(_SIEVE_MODULI, _SQUARES_OF,
                                     _IS_SQUARE_TWICE):
            shift = m - c % m
            # period[i]: is (i^2 - c) mod m a square?
            period = flags[shift:shift + m][squares]
            table = np.empty((SIEVE_BLOCK // m + 2, m), dtype=bool)
            table[:] = period
            tables.append(table.ravel())
        self._tables = tuple(tables)

    def _run(self, x0: int, step: int, count: int) -> np.ndarray:
        """Survival mask of x0 + step*j for j < count; step is +1 or -1."""
        ok = None
        for m, table in zip(_SIEVE_MODULI, self._tables):
            start = step * x0 % m
            part = table[start:start + count]
            ok = part.copy() if ok is None else np.logical_and(ok, part, out=ok)
        return ok

    def ascending(self, x0: int, count: int) -> np.ndarray:
        """Ascending j < count (at most SIEVE_BLOCK) where x0 + j survives."""
        return np.flatnonzero(self._run(x0, 1, count))

    def zigzag(self, x0: int, r0: int, rows: int) -> np.ndarray:
        """Ascending i < 2*rows where the i-th element survives in the order
        x0 - r0, x0 + r0 + 1, x0 - r0 - 1, x0 + r0 + 2, ...

        With r0 = 0 this is x0, x0 + 1, x0 - 1, x0 + 2, ...: element 2j is
        x0 - r0 - j and element 2j + 1 is x0 + r0 + 1 + j.  rows is at most
        SIEVE_BLOCK.
        """
        ok = np.empty(2 * rows, dtype=bool)
        ok[0::2] = self._run(x0 - r0, -1, rows)
        ok[1::2] = self._run(x0 + r0 + 1, 1, rows)
        return np.flatnonzero(ok)

    def values(self, x_mod: np.ndarray) -> np.ndarray:
        """Survival mask of x, given x mod SIEVE_MODULUS per value."""
        ok = None
        for m, table in zip(_SIEVE_MODULI, self._tables):
            hit = table[x_mod % m]
            ok = hit if ok is None else np.logical_and(ok, hit, out=ok)
        return ok

    def root(self, x: int):
        """Exact y with y*y == x*x - c, or None."""
        return perfect_square(x * x - self.c)


def mod_pow(base: int, exp: int, m: int) -> int:
    """base**exp mod m for m >= 2; 0**0 defined as 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if exp < 0:
        raise ValueError("exponent must be >= 0")
    return pow(base, exp, m)


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


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
        bases = [rng.randrange(2, n - 1) for _ in range(40)]
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


def small_primes(limit: int):
    """Primes <= limit by a plain sieve (desk-scale helper)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(2, limit + 1) if sieve[i]]


def _pollard_rho(n: int, rng: random.Random) -> int:
    # Brent's cycle variant; n odd composite, returns a nontrivial factor.
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int, seed: int = 1) -> dict[int, int]:
    """Complete factorization of n < 2**64-ish; trial division plus rho."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    rng = random.Random(seed)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_rho(m, rng)
        stack.append(g)
        stack.append(m // g)
    return out


def multiplicative_order_small(t: int, n: int) -> int:
    """Least e >= 1 with t**e == 1 (mod n); n odd and below 2**64."""
    if n < 1 or n >= 1 << 64 or n % 2 == 0:
        raise ValueError("modulus must be odd and below 2**64")
    t %= n
    if math.gcd(t, n) != 1:
        raise ValueError("not a unit")
    if n == 1:
        return 1
    # group exponent lambda(n) = lcm over prime-power components
    lam = 1
    for p, e in _factorize(n).items():
        lam = math.lcm(lam, p ** (e - 1) * (p - 1))
    order = lam
    for p in _factorize(lam):
        while order % p == 0 and pow(t, order // p, n) == 1:
            order //= p
    return order


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
    """Scan divisors 2, 3, 5, ... up to the bound; cheapest baseline."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ops = 0
    d = 2
    limit = min(bound, math.isqrt(n))
    while d <= limit:
        ops += 1
        if n % d == 0:
            cert = Certificate(METHOD_TRIAL_DIVISION, {"divisor": d})
            return factored(d, n // d, cert, ops)
        d += 1 if d == 2 else 2
    return exhausted(ops)


def pollard_pm1(n: int, smoothness_bound: int, t: int = 2) -> FactorResult:
    """Stage-wise p-1 method: exponent = product of prime powers <= bound.

    The gcd is probed after every prime stage, so a split survives even
    when the full exponent would kill both factors at once.  A degenerate
    gcd == n restarts with the next base, at most 8 bases total.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    ops = 0
    base = t
    stages = small_primes(smoothness_bound)
    for _ in range(8):
        g = math.gcd(base, n)
        if 1 < g < n:  # lucky: the base itself shares a factor
            cert = Certificate(METHOD_POLLARD_PM1,
                               {"base": base, "bound": smoothness_bound, "divisor": g})
            return factored(g, n // g, cert, ops)
        x = base % n
        degenerate = False
        for p in stages:
            pe = p
            while pe * p <= smoothness_bound:
                pe *= p
            x = pow(x, pe, n)
            ops += 1
            g = math.gcd(x - 1, n)
            if 1 < g < n:
                cert = Certificate(
                    METHOD_POLLARD_PM1,
                    {"base": base, "bound": smoothness_bound, "divisor": g})
                return factored(g, n // g, cert, ops)
            if g == n:
                degenerate = True
                break
        if not degenerate:
            return exhausted(ops)
        base += 1
        while base % 2 == 0 or base == n:
            base += 1
    return exhausted(ops)
