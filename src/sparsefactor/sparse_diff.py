"""Factoring via sparse roots of U^2 +- aU +- bN = 0.

If q - p (or p +- bq for a small multiplier b) is a sparse signed-binary
integer a, then U^2 - aU - bN has an integer root whose gcd with N is a
proper divisor.  The search takes a in canonical order and tests the sign
patterns of the quadratic, one op per discriminant; its residue sieve reads
int64 values congruent to a, and only survivors become Python ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Optional

import numpy as np

from . import expansions
from .arith import SIEVE_MODULUS, SquareSieve, isqrt_ceil, preamble
from .model import (
    Certificate,
    FactorResult,
    METHOD_SPARSE_DIFFERENCE,
    SearchBudget,
    exhausted,
    factored,
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


def _residue_runs(w: int, v_max: int, below):
    """(e, lower, res) per run of expansions._weight_runs(w, v_max), with res
    int64 and congruent to the run mod SIEVE_MODULUS, grown from the level
    below's residue runs; weight 1 comes in runs of _CHUNK exponents from e.
    """
    if w == 1:
        for e in range(0, v_max + 1, _CHUNK):
            exps = range(e, min(e + _CHUNK, v_max + 1))
            yield e, [], np.array([pow(2, x, SIEVE_MODULUS) for x in exps])
        return
    # sym[mid - size:mid + size] = -prefix reversed + prefix: one add a run
    sym, mid, size = np.empty(0, dtype=np.int64), 0, 0
    for e, lower in expansions._weight_runs(w, v_max):
        low = next(below)
        end = size + len(low)
        if end > mid:
            grown = np.empty(4 * end, dtype=np.int64)
            grown[2 * end - size:2 * end + size] = sym[mid - size:mid + size]
            sym, mid = grown, 2 * end
        sym[mid + size:mid + end] = low
        np.negative(low[::-1], out=sym[mid - end:mid - size])
        size = end
        yield e, lower, pow(2, e, SIEVE_MODULUS) + sym[mid - size:mid + size]


def _chunks(k: int, v_max: int, a_min: int):
    """(a_mod, wide, offsets, pieces) per _CHUNK values of the stream: their
    residues (_residue_runs) and whether each is >= a_min, in one sieve call
    however short the runs.  From offsets[r] on, with pieces[r] = (e, lower,
    mid), position i holds 2^e - lower[mid - 1 - i] below mid and 2^e +
    lower[i - mid] from mid on, or 2^(e + i - mid) if lower is empty.
    """
    parts, offsets, pieces, fill = [], [], [], 0
    wide = np.zeros(_CHUNK, dtype=bool)
    top, below = expansions._max_weight(k, v_max), None
    for w in range(1, top + 1):
        done = []  # this level's residue runs, which grow the next level's
        for e, lower, res in _residue_runs(w, v_max, below):
            if 1 < w < top:
                done.append(res)
            # the run ascends: bisects on lower find its first a >= a_min
            size, j, lead = len(lower), 0, 1 << e
            split = (size - bisect_right(lower, lead - a_min, 0, size)
                     + bisect_left(lower, a_min - lead, 0, size) if lower
                     else (a_min - 1).bit_length() - e)
            while j < len(res):
                part = res[j:j + _CHUNK - fill]
                parts.append(part)
                offsets.append(fill)
                pieces.append((e, lower, fill - j + size))
                if split < j + len(part):
                    wide[fill + max(split - j, 0):fill + len(part)] = True
                fill, j = fill + len(part), j + len(part)
                if fill == _CHUNK:
                    yield np.concatenate(parts), wide, offsets, pieces
                    parts, offsets, pieces, fill = [], [], [], 0
                    wide = np.zeros(_CHUNK, dtype=bool)
        below = iter(done) if w > 1 else (
            [pow(2, e, SIEVE_MODULUS)] for e in range(v_max + 1))
    if parts:
        yield np.concatenate(parts), wide[:fill], offsets, pieces


def sparse_difference_factor(n: int, budget: SearchBudget) -> FactorResult:
    """Double loop over multipliers b and canonical positive sparse a.

    Each a evaluates the patterns of SIGN_PATTERNS whose discriminant is
    nonnegative, one op each: four when a^2 >= 4bN, else the two (., -1).
    The (-1, .) patterns repeat the discriminants of (1, .) and recover the
    same roots, so they are counted but never tested.
    """
    if (early := preamble(n, budget.seed)) is not None:
        return early
    cap = budget.op_cap
    ops = 0
    for b in budget.multipliers:
        four_bn = 4 * b * n
        below = SquareSieve(four_bn)    # a^2 - 4bN, sign_bn = +1
        above = SquareSieve(-four_bn)   # a^2 + 4bN, sign_bn = -1
        a_min = isqrt_ceil(four_bn)     # a^2 >= 4bN  <=>  a >= a_min
        chunks = _chunks(budget.k, budget.v_max, a_min)
        for c, (a_mod, wide, offsets, pieces) in enumerate(chunks):
            if ops >= cap:
                return exhausted(ops)
            # every value costs at least two ops: sieve none past the cap
            # (a chunk cut short here is the last before the cap)
            keep = (cap - ops + 1) // 2
            a_mod, wide = a_mod[:keep], wide[:keep]
            cost = np.where(wide, 4, 2)
            first_op = ops + np.cumsum(cost) - cost + 1
            minus = below.values(a_mod) & wide
            plus = above.values(a_mod)
            for i in np.flatnonzero(minus | plus).tolist():
                e, low, mid = pieces[bisect_right(offsets, i) - 1]
                a = (1 << e + i - mid if not low else (1 << e) + low[i - mid]
                     if i >= mid else (1 << e) - low[mid - 1 - i])
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
                    cert = Certificate(
                        METHOD_SPARSE_DIFFERENCE,
                        {"a": a, "digits": expansions.digits(a), "b": b,
                         "sign_a": 1, "sign_bn": sign_bn, "u": u,
                         "index": c * _CHUNK + i})
                    return factored(p, q, cert, int(op))
            ops = min(ops + int(cost.sum()), cap)
    return exhausted(ops)
