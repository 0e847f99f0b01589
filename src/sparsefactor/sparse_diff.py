"""Factoring via sparse roots of U^2 +- aU +- bN = 0.

If q - p (or p +- bq for a small multiplier b) is a sparse signed-binary
integer a, then the quadratic U^2 - aU - bN has an integer root whose gcd
with N is a proper divisor.  The driver enumerates candidate a values in
canonical order and tests the four sign patterns of the quadratic; each
evaluated discriminant counts as one square test against the op cap.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import expansions
from .arith import SIEVE_MODULUS, SquareSieve, is_probable_prime, isqrt_ceil
from .model import (
    Certificate,
    FactorResult,
    METHOD_SPARSE_DIFFERENCE,
    SearchBudget,
    exhausted,
    factored,
    probable_prime,
    trivial_or_even,
)

# (sign of aU, sign of bN) in the fixed probe order.
SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Values taken from the stream per sieve call.
_CHUNK = 2048


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


def _chunks(runs):
    """(index, values): the stream cut into arrays of _CHUNK values.

    Short runs are coalesced, so each chunk is one sieve call whatever the
    run lengths; index is the stream index of values[0].
    """
    index, pieces, size = 0, [], 0
    for run in runs:
        pos = 0
        while pos < len(run):
            piece = run[pos:pos + _CHUNK - size]
            pieces.append(piece)
            size += len(piece)
            pos += len(piece)
            if size == _CHUNK:
                yield index, np.concatenate(pieces)
                index += _CHUNK
                pieces, size = [], 0
    if pieces:
        yield index, np.concatenate(pieces)


def sparse_difference_factor(n: int, budget: SearchBudget) -> FactorResult:
    """Double loop over multipliers b and canonical positive sparse a.

    Each a evaluates the patterns of SIGN_PATTERNS whose discriminant is
    nonnegative, one op each: four when a^2 >= 4bN, else the two (., -1).
    The (-1, .) patterns repeat the discriminants of (1, .) and recover the
    same roots, so they are counted but never tested.
    """
    if (early := trivial_or_even(n)) is not None:
        return early
    if is_probable_prime(n, budget.seed):
        return probable_prime()
    cap = budget.op_cap
    ops = 0
    for b in budget.multipliers:
        four_bn = 4 * b * n
        below = SquareSieve(four_bn)    # a^2 - 4bN, sign_bn = +1
        above = SquareSieve(-four_bn)   # a^2 + 4bN, sign_bn = -1
        a_min = isqrt_ceil(four_bn)     # a^2 >= 4bN  <=>  a >= a_min
        runs = expansions._stream_runs(budget.k, budget.v_max, False)
        for start, chunk in _chunks(runs):
            if ops >= cap:
                return exhausted(ops)
            # every value costs at least two ops: sieve none past the cap
            # (a chunk cut short here is the last before the cap)
            chunk = chunk[:(cap - ops + 1) // 2]
            # int64 chunks compare exactly with a_min past 2^63 (NEP 50);
            # object chunks of Python ints keep v_max > 62 exact
            a_mod = (chunk % SIEVE_MODULUS).astype(np.int64, copy=False)
            wide = chunk >= a_min
            cost = np.where(wide, 4, 2)
            first_op = ops + np.cumsum(cost) - cost + 1
            minus = below.values(a_mod) & wide
            plus = above.values(a_mod)
            for i in np.flatnonzero(minus | plus):
                a = int(chunk[i])
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
                         "sign_bn": sign_bn, "u": u,
                         "index": start + int(i)})
                    return factored(p, q, cert, int(op))
            ops = min(ops + int(cost.sum()), cap)
    return exhausted(ops)
