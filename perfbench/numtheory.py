"""Integer helpers the benchmark uses to build and check inputs.

They are written here, independently of the package under test, so that a
defect in ``sparsefactor.arith`` or ``sparsefactor.expansions`` cannot make
the benchmark build wrong inputs or accept wrong outputs.  Only the standard
library is used.
"""

from __future__ import annotations

import functools
import math
import random

_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = 16) -> bool:
    """Miller-Rabin; exact below 3.3e24, error below 4^-rounds above.

    Bases above 2^64 come from a generator seeded by n itself, so the
    answer is a pure function of n.  Base 2 goes first, which rejects
    almost every composite before any random base is drawn; rounds=0
    stops there (a base-2 probable-prime test).
    """
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if not _strong_probable_prime(n, 2, d, s):
        return False
    if rounds == 0:
        return True
    if n < 1 << 64:
        bases = _WITNESSES_64[1:]
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return all(_strong_probable_prime(n, a, d, s) for a in bases)


def prime_pair(rng: random.Random, bits: int, d: int) -> int:
    """A prime p with exactly `bits` bits such that p + d is prime too."""
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if (is_prime(p, rounds=0) and is_prime(p + d, rounds=0)
                and is_prime(p) and is_prime(p + d)):
            return p


def next_prime(n: int) -> int:
    """Least prime >= n."""
    if n <= 2:
        return 2
    n |= 1
    while not is_prime(n):
        n += 2
    return n


def random_prime(rng: random.Random, bits: int) -> int:
    """Uniform-ish prime with exactly `bits` bits."""
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


def iroot(n: int, d: int) -> int:
    """Floor of the d-th root of n >= 0, by bisection on exact powers."""
    if n < 2:
        return n
    lo, hi = 1, 1 << (n.bit_length() // d + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** d <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def naf_digits(n: int) -> list[tuple[int, int]]:
    """Nonadjacent form of n as (sign, exponent), highest exponent first."""
    digits = []
    m, pos = abs(n), 0
    while m:
        if m & 1:
            digit = 2 - (m & 3)  # +1 when m = 1 mod 4, -1 when m = 3 mod 4
            digits.append((digit if n > 0 else -digit, pos))
            m -= digit
        m >>= 1
        pos += 1
    return digits[::-1]


def naf_weight(n: int) -> int:
    """Nonzero NAF digits of n: the bits where n + 2n carries differ from n."""
    m = abs(n)
    return (m ^ 3 * m).bit_count()


def sparse_stream(k: int, v_max: int, signed: bool) -> list[int]:
    """The canonical sparse order: weight, then |value|, then + before -.

    Built by brute force over |value| < 2^(v_max + 2), so it is only for
    the small (k, v_max) the benchmark uses to place its xfermat hits.
    """
    levels: dict[int, list[int]] = {}
    for m in range(1, 1 << (v_max + 2)):
        digits = naf_digits(m)
        if len(digits) <= k and digits[0][1] <= v_max:
            levels.setdefault(len(digits), []).append(m)
    out = [0] if signed else []
    for w in sorted(levels):
        for m in levels[w]:
            out.append(m)
            if signed:
                out.append(-m)
    return out


@functools.lru_cache(maxsize=4)
def primes_upto(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    return tuple(i for i in range(bound + 1) if sieve[i])


def is_smooth(m: int, bound: int) -> bool:
    """True when every prime factor of m > 0 is at most bound."""
    for p in primes_upto(bound):
        if m == 1:
            return True
        if p * p > m:
            return m <= bound
        while m % p == 0:
            m //= p
    return m == 1


def nearest_quotient(delta: int, unit: int) -> int:
    """delta / unit rounded to the nearest integer, halves rounding up."""
    return (2 * delta + unit) // (2 * unit)
