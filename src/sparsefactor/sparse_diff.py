"""Factoring via sparse roots of U^2 +- aU +- bN = 0.

If q - p (or p +- bq for a small multiplier b) is a sparse signed-binary
integer a, then the quadratic U^2 - aU - bN has an integer root whose gcd
with N is a proper divisor.  The driver enumerates candidate a values in
canonical order and tests the four sign patterns of the quadratic; each
evaluated discriminant counts as one square test against the op cap.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from . import expansions
from .arith import SIEVE_MODULUS, SquareSieve, is_probable_prime, isqrt_ceil, perfect_square
from .model import (
    Certificate,
    FactorResult,
    METHOD_SPARSE_DIFFERENCE,
    METHOD_TRIAL_DIVISION,
    SearchBudget,
    exhausted,
    factored,
    probable_prime,
    trivial_input,
)

# (sign of aU, sign of bN) in the fixed probe order.
SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Values taken from the stream per sieve call.
_CHUNK = 2048


def discriminant_root(a: int, b: int, n: int, sign: int) -> Optional[int]:
    """Square root of a^2 + sign*4bN when that value is a perfect square."""
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    disc = a * a + 4 * b * n if sign > 0 else a * a - 4 * b * n
    if disc < 0:
        return None
    return perfect_square(disc)


def _extract(a: int, r: int, n: int) -> Optional[tuple[int, int, int]]:
    # integer roots have magnitude (a + r)/2 or |a - r|/2; for multipliers
    # b > 1 they need not divide n, so the divisor is pulled out by gcd
    if (a + r) % 2:
        return None
    for u in ((a + r) // 2, abs(a - r) // 2):
        if u < 2:
            continue
        g = math.gcd(u, n)
        if 1 < g < n:
            return g, n // g, u
    return None


def roots_from_discriminant(a: int, b: int, n: int, sign: int,
                            r: int) -> Optional[tuple[int, int]]:
    """Recover a factor pair of n from a square discriminant root r."""
    hit = _extract(a, r, n)
    if hit is None:
        return None
    p, q, _ = hit
    return (p, q) if p <= q else (q, p)


def sparse_difference_factor(n: int, budget: SearchBudget,
                             partition: Optional[tuple[int, int]] = None) -> FactorResult:
    """Double loop over multipliers b and canonical positive sparse a.

    Each a evaluates the patterns of SIGN_PATTERNS whose discriminant is
    nonnegative, one op each: four when a^2 >= 4bN, else the two (., -1).
    The (-1, .) patterns repeat the discriminants of (1, .) and recover the
    same roots, so they are counted but never tested.
    """
    if n < 3:
        return trivial_input()
    if n % 2 == 0:
        cert = Certificate(METHOD_TRIAL_DIVISION, {"divisor": 2})
        return factored(2, n // 2, cert, 0)
    if is_probable_prime(n, budget.seed):
        return probable_prime()
    start, stride = partition or (0, 1)
    cap = budget.op_cap
    ops = 0
    for b in budget.multipliers:
        four_bn = 4 * b * n
        below = SquareSieve(four_bn)    # a^2 - 4bN, sign_bn = +1
        above = SquareSieve(-four_bn)   # a^2 + 4bN, sign_bn = -1
        a_min = isqrt_ceil(four_bn)     # a^2 >= 4bN  <=>  a >= a_min
        stream = expansions.stream_slice(budget.k, budget.v_max, False,
                                         start, stride)
        while True:
            if ops >= cap:
                return exhausted(ops)
            # every value costs at least two ops: take none past the cap
            chunk = list(itertools.islice(
                stream, min(_CHUNK, (cap - ops + 1) // 2)))
            if not chunk:
                break
            # object arrays keep values past int64 exact
            values = np.array([a for _, a in chunk], dtype=object)
            a_mod = (values % SIEVE_MODULUS).astype(np.int64)
            wide = values >= a_min
            cost = np.where(wide, 4, 2)
            first_op = ops + np.cumsum(cost) - cost + 1
            minus = below.values(a_mod) & wide
            plus = above.values(a_mod)
            for i in np.flatnonzero(minus | plus):
                idx, a = chunk[i]
                for sieve, sign_bn, op, passed in (
                        (below, 1, first_op[i], minus[i]),
                        (above, -1, first_op[i] + wide[i], plus[i])):
                    if not passed:
                        continue
                    if op > cap:
                        return exhausted(cap)
                    r = sieve.root(a)
                    hit = None if r is None else _extract(a, r, n)
                    if hit is None:
                        continue
                    p, q, u = hit
                    digits = [[s, e] for s, e in expansions.naf(a).terms]
                    cert = Certificate(
                        METHOD_SPARSE_DIFFERENCE,
                        {"a": a, "digits": digits, "b": b, "sign_a": 1,
                         "sign_bn": sign_bn, "u": u, "index": idx})
                    return factored(p, q, cert, int(op))
            ops = min(ops + int(cost.sum()), cap)
    return exhausted(ops)
