"""Factoring with running exponents E = prod(A_i*N + B_j).

The accumulated power T^E is tracked modulo N while E itself is never
materialized: each grid step raises the current power to |A*N + B|.  A step
splits N when gcd(T^E -+ 1, N) lands strictly between 1 and N.  Steps run
in batches of POW_BATCH with one pow and one gcd, and a flagged batch is
replayed step by step.  When the probe degenerates to N, the trace's
factorization of E into known integer factors allows walking square roots
of unity downward (w = T^s, T^(2s), ...) to recover a nontrivial root and
split N anyway.  The grid keeps its trace as plain (A, B) integer pairs;
NAF digits are written only into a certificate.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple, Optional, Sequence

from . import expansions
from .arith import POW_BATCH, is_probable_prime
from .model import (
    Certificate,
    FactorResult,
    METHOD_SPARSE_EXPONENT,
    SearchBudget,
    exhausted,
    factored,
    probable_prime,
    trivial_or_even,
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


def _digits(value: int) -> list[list[int]]:
    return [[s, e] for s, e in expansions.naf(value).terms]


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
    if (early := trivial_or_even(n)) is not None:
        return early
    if is_probable_prime(n, seed):
        return probable_prime()
    rng = random.Random(seed)
    # every a row walks the same signed b row: draw it once, lazily
    b_seen: list[int] = []
    b_source = expansions.sparse_values(budget.k, budget.v_max, True)
    ops = 0
    for trial in range(trials):
        base = 2 if trial == 0 else rng.randrange(2, n - 1)
        g = math.gcd(base, n)
        if g > 1:
            if g == n:
                continue
            return _lucky_split(n, base, g, ops)
        grid = _grid(n, budget, b_seen, b_source)
        result, ops = _walk_base(n, base, grid, ops, budget.op_cap)
        if result is not None:
            return result
    return exhausted(ops)


def _walk_base(n: int, base: int, grid: Iterator[tuple[int, int, int]],
               ops: int, op_cap: int) -> tuple[Optional[FactorResult], int]:
    """Raise base along the grid, POW_BATCH steps per pow and gcd.

    Returns (result, ops); result is None when the base is abandoned or the
    grid runs dry below the cap.  Once x == +-1 modulo a prime p | N, every
    later power of x is too, so a batch's last value y has gcd(y^2 - 1, N)
    = 1 only if no step of the batch would stop on gcd(x -+ 1, N).  Any
    other batch is replayed step by step from its start, and only the
    replay judges steps.
    """
    x = base % n
    steps: list[tuple[int, int, int]] = []
    while batch := list(itertools.islice(grid, min(POW_BATCH, op_cap - ops))):
        y = pow(x, math.prod([f for _, _, f in batch]), n)
        if math.gcd(y * y - 1, n) == 1:
            x = y
            ops += len(batch)
            steps += batch
            continue
        for step in batch:
            ops += 1
            x = pow(x, step[2], n)
            steps.append(step)
            d, side = math.gcd(x - 1, n), -1
            if d == n:
                factors = [f for _, _, f in steps]
                split = unity_root_recovery(base, factors, n)
                if split is None:
                    return None, ops
                cert = Certificate(
                    METHOD_SPARSE_EXPONENT,
                    {"kind": "unity_root", "factors": factors, "base": base,
                     "square_ups": split.square_ups})
                return factored(split.p, split.q, cert, ops), ops
            if d == 1:
                d, side = math.gcd(x + 1, n), 1
            if 1 < d < n:
                trace = [[_digits(a), _digits(b)] for a, b, _ in steps]
                bits = sum(f.bit_length() for _, _, f in steps)
                cert = Certificate(
                    METHOD_SPARSE_EXPONENT,
                    {"kind": "grid", "trace": trace, "base": base,
                     "gcd_side": side, "exponent_bits": bits})
                return (factored(min(d, n // d), max(d, n // d), cert, ops),
                        ops)
    # at the cap, a grid with a step left exhausts the run; a grid that
    # ran dry exactly at the cap passes on to the next base
    if ops >= op_cap and next(grid, None) is not None:
        return exhausted(ops), ops
    return None, ops


def _grid(n: int, budget: SearchBudget, b_seen: list[int],
          b_source: Iterator[int]) -> Iterator[tuple[int, int, int]]:
    """(A, B, |A*N + B|) in grid order, skipping the factors 0 and +-1.

    The b row is read from b_seen, then drawn from b_source and appended,
    so b_seen stays a prefix of the row shared by every a row and trial.
    """
    # the A = 0 row multiplies plain sparse B factors into the exponent,
    # which scoops up small primes before any A*N + B factor is needed
    a_row = expansions.sparse_values(budget.k, budget.v_max, False)
    for a_val in itertools.chain((0,), a_row):
        a_n = a_val * n
        for b_val in b_seen:
            f = a_n + b_val
            if f > 1 or f < -1:
                yield a_val, b_val, abs(f)
        for b_val in b_source:
            b_seen.append(b_val)
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
        if a_val == 0:
            continue
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
                split = unity_root_recovery(base, [abs(e)], n)
                if split is not None:
                    cert = Certificate(
                        METHOD_SPARSE_EXPONENT,
                        {"kind": "unity_root", "factors": [abs(e)],
                         "base": base, "square_ups": split.square_ups,
                         "steps": ops})
                    return factored(split.p, split.q, cert, ops)
    return exhausted(ops)
