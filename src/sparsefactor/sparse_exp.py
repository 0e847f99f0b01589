"""Factoring with running exponents E = prod(A_i*N + B_j).

The accumulated power T^E is tracked modulo N while E itself is never
materialized: each grid step raises the current power to |A*N + B|.  A step
splits N when gcd(T^E -+ 1, N) lands strictly between 1 and N.  The walk
is arith._batched_powers, the one p-1 runs: one pow and one gcd(y^2 - 1, N)
per POW_BATCH steps, and a flagged batch replayed step by step.  When the
probe degenerates to N, the trace's factorization of E into known integer
factors allows walking square roots of unity downward (w = T^s, T^(2s),
...) to recover a nontrivial root and split N anyway.  The grid keeps its
trace as plain (A, B) integer pairs and reads the signed B stream afresh
for every A row; NAF digits are written only into a certificate.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from . import expansions
from .arith import _batched_powers, preamble
from .model import (
    Certificate,
    FactorResult,
    METHOD_SPARSE_EXPONENT,
    SearchBudget,
    exhausted,
    factored,
)


class UnitySplit(NamedTuple):
    p: int
    q: int
    square_ups: int  # squarings applied to T^s before the root appeared


def unity_root_recovery(base: int, e_trace: Sequence[int],
                        n: int) -> Optional[UnitySplit]:
    """Walk w = T^s, T^(2s), ... for a square root of unity other than +-1.

    e_trace lists the integer factors whose product is the exponent E with
    T^E == 1 (mod N).  The 2-adic valuation of E is accumulated per factor,
    so E is never materialized.  Returns None when every encountered root
    is +-1 (the failure case where T has common order mod both factors).
    """
    r = 0
    w = base % n
    for f in e_trace:
        f = abs(int(f))
        if f == 0:
            raise ValueError("degenerate factor")
        v = (f & -f).bit_length() - 1
        r += v
        w = pow(w, f >> v, n)
    if w == 1:
        return None
    prev = w
    for i in range(r):
        nxt = prev * prev % n
        if nxt == 1:
            if prev == n - 1:
                return None
            g = math.gcd(prev - 1, n)
            if not (1 < g < n):
                return None
            return UnitySplit(min(g, n // g), max(g, n // g), i)
        prev = nxt
    return None


def _unity_split(n: int, base: int, factors: list[int], ops: int,
                 **extra) -> Optional[FactorResult]:
    """The unity-root split of T^E == 1 (mod N), E the product of factors."""
    split = unity_root_recovery(base, factors, n)
    if split is None:
        return None
    cert = Certificate(METHOD_SPARSE_EXPONENT,
                       {"kind": "unity_root", "factors": factors, "base": base,
                        "square_ups": split.square_ups, **extra})
    return factored(split.p, split.q, cert, ops)


def _lucky_split(n: int, base: int, g: int, ops: int) -> FactorResult:
    cert = Certificate(METHOD_SPARSE_EXPONENT,
                       {"kind": "lucky", "base": base, "divisor": g})
    return factored(g, n // g, cert, ops)


def sparse_exponent_factor(n: int, budget: SearchBudget, trials: int = 8,
                           seed: int = 0) -> FactorResult:
    """Run the sparse grid under up to `trials` bases.

    The first base is 2; later bases are drawn from the seeded generator.
    A degenerate probe triggers unity-root recovery, and if that also
    fails the base is abandoned (its order divides both p-1 and q-1, so
    the whole row would stay degenerate).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (early := preamble(n, seed)) is not None:
        return early
    rng = random.Random(seed)
    ops = 0
    for trial in range(trials):
        base = 2 if trial == 0 else rng.randrange(2, n - 1)
        g = math.gcd(base, n)
        if g > 1:
            return _lucky_split(n, base, g, ops)
        result, ops = _walk_base(n, base, budget, ops)
        if result is not None:
            return result
    return exhausted(ops)


def _walk_base(n: int, base: int, budget: SearchBudget,
               ops: int) -> tuple[Optional[FactorResult], int]:
    """Raise base along the grid and test each power _batched_powers yields.

    Returns (result, ops); result is None when the base is abandoned or the
    grid runs dry below the cap.  The grid is a pure function of n and the
    budget, so a split re-reads its first steps for the certificate.
    """
    grid = _grid(n, budget)
    start = ops
    factors = map(itemgetter(2), itertools.islice(grid, budget.op_cap - ops))
    for steps, x in _batched_powers(base % n, n, factors):
        ops = start + steps
        d, side = math.gcd(x - 1, n), -1
        if d == n:
            taken = itertools.islice(_grid(n, budget), steps)
            return _unity_split(n, base, [f for *_, f in taken], ops), ops
        if d == 1:
            d, side = math.gcd(x + 1, n), 1
        if 1 < d < n:
            taken = list(itertools.islice(_grid(n, budget), steps))
            cert = Certificate(
                METHOD_SPARSE_EXPONENT,
                {"kind": "grid",
                 "trace": [[expansions.digits(a), expansions.digits(b)]
                           for a, b, _ in taken],
                 "base": base, "gcd_side": side,
                 "exponent_bits": sum(f.bit_length() for _, _, f in taken)})
            return factored(min(d, n // d), max(d, n // d), cert, ops), ops
    # at the cap, a grid with a step left exhausts the run; a grid that
    # ran dry exactly at the cap passes on to the next base
    if ops >= budget.op_cap and next(grid, None) is not None:
        return exhausted(ops), ops
    return None, ops


def _grid(n: int, budget: SearchBudget) -> Iterator[tuple[int, int, int]]:
    """(A, B, |A*N + B|) in grid order, skipping the factors 0 and +-1."""
    # the A = 0 row multiplies plain sparse B factors into the exponent,
    # which scoops up small primes before any A*N + B factor is needed
    a_row = expansions.sparse_values(budget.k, budget.v_max, False)
    for a_val in itertools.chain((0,), a_row):
        a_n = a_val * n
        for b_val in expansions.sparse_values(budget.k, budget.v_max, True):
            f = a_n + b_val
            if f > 1 or f < -1:
                yield a_val, b_val, abs(f)


def germain_factor(n: int, k_max: int, base: int = 2) -> FactorResult:
    """Probe exponents E = 2kN, which annihilate q - 1 when q = 2kp + 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd n >= 3")
    g = math.gcd(base, n)
    if 1 < g < n:
        return _lucky_split(n, base, g, 0)
    ops = 0
    for k in range(1, k_max + 1):
        ops += 1
        x = pow(base, 2 * k * n, n)
        d = math.gcd(x - 1, n)
        if 1 < d < n:
            cert = Certificate(METHOD_SPARSE_EXPONENT,
                               {"kind": "germain", "multiple": k, "base": base})
            return factored(d, n // d, cert, ops)
    return exhausted(ops)


def _negative_first_values(k: int, v_max: int):
    # Linear conditions A*k + B == 0 (mod m) with 0 < A*k < m have their
    # minimal-magnitude solutions at negative B, so scan those first.
    for val in expansions.sparse_values(k, v_max, False):
        yield -val
        yield val


def cyclotomic_form_factor(n: int, form: tuple[str, int],
                           budget: SearchBudget, base: int = 3) -> FactorResult:
    """Structured exponents for Mersenne and Fermat-shaped inputs.

    Probes E = (N-1)*A + period*B where the period is 2r for N = 2^r - 1
    and 2^(m+2) for N = 2^(2^m) + 1; every prime factor of such N is
    congruent to 1 modulo the period, so E kills one factor's order as
    soon as the linear condition lands.
    """
    kind, param = form
    # bit lengths first: 2^r or 2^(2^m) for a large parameter is too big
    # to build
    if kind == "mersenne":
        if n.bit_length() != param or n != (1 << param) - 1:
            raise ValueError("form mismatch")
        period = 2 * param
    elif kind == "fermat":
        if ((n.bit_length() - 1).bit_length() != param + 1
                or n != (1 << (1 << param)) + 1):
            raise ValueError("form mismatch")
        period = 1 << (param + 2)
    else:
        raise ValueError("form mismatch")
    g = math.gcd(base, n)
    if 1 < g < n:
        return _lucky_split(n, base, g, 0)
    ops = 0
    v_b = max(1, min(budget.v_max, n.bit_length() - period.bit_length() - 1))
    for a_val in expansions.sparse_values(budget.k, budget.v_max, False):
        for b_val in _negative_first_values(budget.k, v_b):
            e = (n - 1) * a_val + period * b_val
            if e == 0:
                continue
            if ops >= budget.op_cap:
                return exhausted(ops)
            ops += 1
            x = pow(base, abs(e), n)
            d = math.gcd(x - 1, n)
            if 1 < d < n:
                cert = Certificate(
                    METHOD_SPARSE_EXPONENT,
                    {"kind": "cyclotomic", "a": a_val, "b": b_val,
                     "period": period, "base": base, "steps": ops})
                return factored(d, n // d, cert, ops)
            if d == n:
                split = _unity_split(n, base, [abs(e)], ops, steps=ops)
                if split is not None:
                    return split
    return exhausted(ops)
