"""Fermat-family factorizations driven by the sum approximation X_a.

The classic method scans x = ceil(sqrt(N)), ... testing x^2 - N for
squareness.  The extended method anchors the scan at

    X_a = floor(sqrt(N)) + a*floor(N^(1/4)) + floor(N / (that base))

which approximates p + q to within 2*N^(1/4) whenever N has a factor above
N^(1/4), and searches x^2 - 4N instead.  The BSGS variant finds the sum
exponentially faster inside a window by solving T^(N+1) == T^(lo+e) (mod N).
"""

from __future__ import annotations

import math
from typing import Optional

from . import expansions
from .arith import SIEVE_BLOCK, SquareSieve, iroot, isqrt_ceil, perfect_square
from .model import (
    Certificate,
    FactorResult,
    LowOrderBaseError,
    METHOD_BSGS_FERMAT,
    METHOD_CLASSIC_FERMAT,
    METHOD_EXTENDED_FERMAT_OFFSET,
    METHOD_EXTENDED_FERMAT_SPARSE,
    SearchBudget,
    exhausted,
    factored,
    trivial_input,
    trivial_or_even,
)


# A classic scan's first block; blocks double up to SIEVE_BLOCK.
_FIRST_BLOCK = 64


def classic_fermat(n: int, max_steps: int) -> FactorResult:
    """Forward scan for x^2 - n square; rejects the trivial split 1*n.

    ops is the position of the hit in scan order, or the number of x
    covered.  Blocks start small, so an early hit costs little, and never
    reach past max_steps.
    """
    if n % 2 == 0:
        raise ValueError("even input")
    if n < 3:
        return trivial_input()
    x0 = isqrt_ceil(n)
    sieve = SquareSieve(n)
    ops = 0
    block = _FIRST_BLOCK
    while ops < max_steps:
        count = min(block, max_steps - ops)
        for j in sieve.ascending(x0 + ops, count):
            step = ops + int(j)
            x = x0 + step
            y = sieve.root(x)
            if y is not None and x - y > 1:
                cert = Certificate(METHOD_CLASSIC_FERMAT, {"x": x, "y": y})
                return factored(x - y, x + y, cert, step + 1)
        ops += count
        block = min(2 * block, SIEVE_BLOCK)
    return exhausted(ops)


def step_count_bound(n: int, p: int) -> int:
    """ceil((p - floor(sqrt(n)))^2 / p): scan-length bound for a known factor."""
    if p <= 1 or n % p:
        raise ValueError("p must be a nontrivial divisor of n")
    if p * p > n:
        raise ValueError("need p <= sqrt(n)")
    d = math.isqrt(n) - p
    return -(-d * d // p)


def sum_anchor(n: int, a: int) -> Optional[int]:
    """X_a, or None when the shifted base leaves the valid range."""
    base = math.isqrt(n) + a * iroot(n, 4)
    if base <= 0:
        return None
    return base + n // base


def _offset_scan(sieve, anchor, t_max, ops_allowed):
    """Probe x = anchor + t for t = 0, +1, -1, ... +-t_max.

    Returns ((t, x, y), ops, capped).  Each probe counts as one op, whether
    the residue sieve or the exact check rejects it; ops is the position of
    the hit, or the number of probes covered.
    """
    total = 2 * t_max + 1
    end = max(0, min(total, ops_allowed))
    pos = 0
    while pos < end:
        rows = min(SIEVE_BLOCK, (end - pos + 1) // 2)
        for i in sieve.zigzag(anchor, pos // 2, rows):
            probe = pos + int(i)
            if probe >= end:
                break
            x = anchor + (probe + 1) // 2 if probe % 2 else anchor - probe // 2
            if x < 2:
                continue
            y = sieve.root(x)
            if y is not None and x - y > 2:
                return (x - anchor, x, y), probe + 1, False
        pos += 2 * rows
    return None, end, end < total


def extended_fermat_offset(n: int, a: int, t_max: int) -> FactorResult:
    """Scan t around the single anchor X_a for a square x^2 - 4N."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd n >= 3")
    anchor = sum_anchor(n, a)
    if anchor is None:
        return exhausted(0)
    hit, ops, _ = _offset_scan(SquareSieve(4 * n), anchor, t_max, 1 << 62)
    if hit is None:
        return exhausted(ops)
    t, x, y = hit
    cert = Certificate(METHOD_EXTENDED_FERMAT_OFFSET,
                       {"a": a, "t": t, "x": x, "y": y})
    return factored((x - y) // 2, (x + y) // 2, cert, ops)


def extended_fermat_sparse(n: int, budget: SearchBudget) -> FactorResult:
    """Iterate sparse coefficients a in canonical order, offset-scanning each."""
    if (early := trivial_or_even(n)) is not None:
        return early
    s0 = math.isqrt(n)
    f0 = iroot(n, 4)
    sieve = SquareSieve(4 * n)
    ops = 0
    for idx, a_val in enumerate(expansions.sparse_values(budget.k,
                                                         budget.v_max, True)):
        if ops >= budget.op_cap:
            break
        base = s0 + a_val * f0
        if base <= 0:
            continue
        anchor = base + n // base
        hit, used, capped = _offset_scan(sieve, anchor, budget.t_max,
                                         budget.op_cap - ops)
        ops += used
        if hit is not None:
            t, x, y = hit
            cert = Certificate(METHOD_EXTENDED_FERMAT_SPARSE,
                               {"a": a_val, "digits": expansions.digits(a_val),
                                "t": t, "x": x, "y": y, "index": idx})
            return factored((x - y) // 2, (x + y) // 2, cert, ops)
        if capped:
            break
    return exhausted(ops)


def solve_quadratic_from_sum(n: int, s: int) -> Optional[tuple[int, int]]:
    """Split n from a candidate factor sum s via the square discriminant."""
    disc = s * s - 4 * n
    if disc < 0:
        return None
    y = perfect_square(disc)
    if y is None or (s - y) % 2:
        return None
    p = (s - y) // 2
    if p <= 1:
        return None
    return p, (s + y) // 2


def balanced_window(n: int) -> tuple[int, int]:
    """Default sum window [2*ceil(sqrt(N)), sqrt(4.5*N)) for p < q < 2p."""
    lo = 2 * isqrt_ceil(n)
    hi = math.isqrt(9 * n // 2) + 2
    return lo, max(hi, lo + 1)


# Widest default window: keeps the baby table at most 2^20 entries.
_WIDTH_CAP = 1 << 40
# The cascade and the blind audit run BSGS on N below this, uncapped: the
# baby table stays desk-sized.
BSGS_LIMIT = 1 << 56


def _capped_steps(room: int) -> tuple[int, int]:
    """(m, giants) covering the most sums in room ops, one kept to validate.

    The table costs m - 1 multiplications, the pow by m 2*bitlen(m) and
    each giant step one; m = 0 when not even one giant step fits.
    """
    m = max(1, (room - 2 * room.bit_length()) // 2)
    giants = room - m - 2 * m.bit_length()
    return (m, giants) if giants >= 1 else (0, 0)


def bsgs_fermat(n: int, base: int, window: Optional[tuple[int, int]] = None,
                op_cap: Optional[int] = None) -> FactorResult:
    """Baby-step giant-step search for the factor sum of n.

    Finds every e in the window with T^(N+1) == T^(lo+e) (mod N) and
    validates each hit by the square test on s^2 - 4N, which screens out
    matches caused by small multiplicative order.  ops counts modular
    multiplications (modular powers at 2 bits each) plus validations.
    A default window is cut to its first _WIDTH_CAP sums (a balanced
    window is that wide above about 2^86), so with or without a cap the
    table holds at most 2^20 entries.  Under an op_cap below the full
    search's cost, m shrinks so that the table, both powers and the giant
    steps fit, and only a prefix of the window is searched; ops never
    exceeds op_cap.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd n >= 3")
    base %= n
    g = math.gcd(base, n)
    if g == n:
        raise ValueError("base is 0 mod n")
    if g > 1:
        cert = Certificate(METHOD_BSGS_FERMAT, {"base": base, "divisor": g})
        return factored(g, n // g, cert, 0)
    if window is None:
        lo, hi = balanced_window(n)
        hi = min(hi, lo + _WIDTH_CAP)
    else:
        lo, hi = window
        if hi <= lo:
            raise ValueError("empty window")
    width = hi - lo
    m = math.isqrt(width - 1) + 1 if width > 1 else 1
    giants = (width + m - 1) // m
    exp = n + 1 - lo
    spare = math.inf  # validations that fit under the cap
    if op_cap is not None:
        room = op_cap - 2 * exp.bit_length()
        if m - 1 + 2 * m.bit_length() + giants > room:
            m, giants = _capped_steps(room)
            if m == 0:
                return exhausted(0)
        spare = room - (m - 1 + 2 * m.bit_length() + giants)
    mults = 0

    table = {}
    cur = 1
    for j in range(m):
        if j:
            cur = cur * base % n
            mults += 1
            if cur == 1:
                raise LowOrderBaseError("low-order base, rechoose T")
        table.setdefault(cur, j)

    target = pow(base, exp, n)
    mults += 2 * exp.bit_length()
    inv_m = pow(pow(base, -1, n), m, n)
    mults += 2 * m.bit_length()

    validations = 0
    for i in range(giants):
        j = table.get(target)
        if j is not None:
            e = i * m + j
            if e < width:
                if validations == spare:
                    break
                s = lo + e
                validations += 1
                pq = solve_quadratic_from_sum(n, s)
                if pq is not None:
                    y = s - 2 * pq[0]
                    cert = Certificate(METHOD_BSGS_FERMAT,
                                       {"x": s, "y": y, "base": base,
                                        "lo": lo, "e": e})
                    return factored(pq[0], pq[1], cert, mults + validations)
        target = target * inv_m % n
        mults += 1
    return exhausted(mults + validations)
