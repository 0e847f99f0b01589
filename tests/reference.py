"""Plain reference loops for the engines' equivalence tests.

Each loop walks the same canonical order as its engine with no shortcut:
the square scans take an exact square root at every candidate, with no
residue filter, and the exponent engines raise x by one factor at a time
and take the gcds after every step, with no batching.  They keep builtin
`pow`, so the engines' modular-power kernel is held to it too.  The
known-factor audit is the class-by-class form the weak-class table
replaced, and trial division and the smoothness test are the loops of one
`%` at a time that gcds replaced.
"""

import itertools
import math
import random

from sparsefactor import expansions, sparse_diff
from sparsefactor.arith import iroot, isqrt_ceil, small_primes
from sparsefactor.expansions import naf, sparse_values, weight
from sparsefactor.model import (
    Certificate,
    METHOD_CLASSIC_FERMAT,
    METHOD_EXTENDED_FERMAT_SPARSE,
    METHOD_POLLARD_PM1,
    METHOD_SPARSE_DIFFERENCE,
    METHOD_SPARSE_EXPONENT,
    METHOD_TRIAL_DIVISION,
    WeakClassReport,
    exhausted,
    factored,
)
from sparsefactor.sparse_exp import unity_root_recovery


def _root(v):
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


def ref_trial_division(n, bound):
    """Divisors 2, 3, 5, 7, 9, ... up to min(bound, isqrt(n)), one `%` each."""
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


def ref_smooth_part(m, primes):
    """m with every factor of the ascending primes divided out."""
    for p in primes:
        while m % p == 0:
            m //= p
        if m == 1:
            break
    return m


def ref_classic(n, max_steps):
    x = isqrt_ceil(n)
    ops = 0
    while ops < max_steps:
        ops += 1
        y = _root(x * x - n)
        if y is not None and x - y > 1:
            cert = Certificate(METHOD_CLASSIC_FERMAT, {"x": x, "y": y})
            return factored(x - y, x + y, cert, ops)
        x += 1
    return exhausted(ops)


def ref_offset_scan(n, anchor, t_max, ops_allowed):
    ops = 0
    for t in range(t_max + 1):
        for x in ((anchor,) if t == 0 else (anchor + t, anchor - t)):
            if ops >= ops_allowed:
                return None, ops, True
            ops += 1
            if x < 2:
                continue
            y = _root(x * x - 4 * n)
            if y is not None and x - y > 2:
                return (x - anchor, x, y), ops, False
    return None, ops, False


def ref_extended_sparse(n, budget):
    s0, f0 = math.isqrt(n), iroot(n, 4)
    ops = 0
    for idx, a in enumerate(expansions.sparse_values(budget.k, budget.v_max,
                                                     True)):
        if ops >= budget.op_cap:
            break
        base = s0 + a * f0
        if base <= 0:
            continue
        hit, used, capped = ref_offset_scan(n, base + n // base, budget.t_max,
                                            budget.op_cap - ops)
        ops += used
        if hit is not None:
            t, x, y = hit
            digits = [[s, e] for s, e in expansions.naf(a).terms]
            cert = Certificate(METHOD_EXTENDED_FERMAT_SPARSE,
                               {"a": a, "digits": digits, "t": t,
                                "x": x, "y": y, "index": idx})
            return factored((x - y) // 2, (x + y) // 2, cert, ops)
        if capped:
            break
    return exhausted(ops)


def ref_sparse_difference(n, budget):
    ops = 0
    for b in budget.multipliers:
        four_bn = 4 * b * n
        for idx, a in enumerate(expansions.sparse_values(budget.k,
                                                         budget.v_max, False)):
            for sign_a, sign_bn in sparse_diff.SIGN_PATTERNS:
                disc = a * a - four_bn if sign_bn > 0 else a * a + four_bn
                if disc < 0:
                    continue
                if ops >= budget.op_cap:
                    return exhausted(ops)
                ops += 1
                r = _root(disc)
                hit = None if r is None else sparse_diff._extract(a, r, n)
                if hit is None:
                    continue
                p, q, u = hit
                digits = [[s, e] for s, e in expansions.naf(a).terms]
                cert = Certificate(
                    METHOD_SPARSE_DIFFERENCE,
                    {"a": a, "digits": digits, "b": b, "sign_a": sign_a,
                     "sign_bn": sign_bn, "u": u, "index": idx})
                return factored(p, q, cert, ops)
    return exhausted(ops)


def ref_grid(n, k, v_max):
    for a in itertools.chain((0,), sparse_values(k, v_max, False)):
        for b in sparse_values(k, v_max, True):
            f = a * n + b
            if abs(f) > 1:
                yield a, b, abs(f)


def _digits(value):
    return [[s, e] for s, e in naf(value).terms]


def ref_sparse_exponent(n, budget, trials, seed, powers=None):
    """The per-step loop for odd composite n; appends each x to powers."""
    rng = random.Random(seed)
    ops = 0
    for trial in range(trials):
        base = 2 if trial == 0 else rng.randrange(2, n - 1)
        g = math.gcd(base, n)
        if g > 1:
            if g == n:
                continue
            cert = Certificate(METHOD_SPARSE_EXPONENT,
                               {"kind": "lucky", "base": base, "divisor": g})
            return factored(g, n // g, cert, ops)
        x = base % n
        steps = []
        for step in ref_grid(n, budget.k, budget.v_max):
            if ops >= budget.op_cap:
                return exhausted(ops)
            ops += 1
            x = pow(x, step[2], n)
            if powers is not None:
                powers.append(x)
            steps.append(step)
            d, side = math.gcd(x - 1, n), -1
            if d == n:
                factors = [f for _, _, f in steps]
                split = unity_root_recovery(base, factors, n)
                if split is None:
                    break
                cert = Certificate(
                    METHOD_SPARSE_EXPONENT,
                    {"kind": "unity_root", "factors": factors, "base": base,
                     "square_ups": split.square_ups})
                return factored(split.p, split.q, cert, ops)
            if d == 1:
                d, side = math.gcd(x + 1, n), 1
            if 1 < d < n:
                cert = Certificate(
                    METHOD_SPARSE_EXPONENT,
                    {"kind": "grid",
                     "trace": [[_digits(a), _digits(b)] for a, b, _ in steps],
                     "base": base, "gcd_side": side,
                     "exponent_bits": sum(f.bit_length() for _, _, f in steps)})
                return factored(min(d, n // d), max(d, n // d), cert, ops)
    return exhausted(ops)


def ref_pollard_pm1(n, bound, t, op_cap):
    """p-1 with one pow and one gcd(x - 1, N) per prime stage."""
    stages = []
    for p in small_primes(bound):
        pe = p
        while pe * p <= bound:
            pe *= p
        stages.append(pe)
    ops = 0
    base = t
    for _ in range(8):
        g = math.gcd(base, n)
        if not 1 < g < n:
            x = base % n
            for pe in stages:
                if ops >= op_cap:
                    return exhausted(ops)
                ops += 1
                x = pow(x, pe, n)
                g = math.gcd(x - 1, n)
                if g != 1:
                    break
            else:
                return exhausted(ops)
        if g < n:
            cert = Certificate(METHOD_POLLARD_PM1,
                               {"base": base, "bound": bound, "divisor": g})
            return factored(g, n // g, cert, ops)
        base += 1  # degenerate: restart with the next odd base
        while base % 2 == 0 or base == n:
            base += 1
    return exhausted(ops)


def _nearest_quotient(delta, unit):
    return (2 * delta + unit) // (2 * unit)


def _locations(n, p, q):
    s0 = math.isqrt(n)
    f0 = iroot(n, 4)
    for side, f in (("p", p), ("q", q)):
        a = _nearest_quotient(f - s0, f0)
        if a != 0:
            yield side, a, f - s0 - a * f0


def ref_audit_known(n, p, q, budget):
    """The known-factor audit of sorted balanced factors, one block per class."""
    classes = set()
    witnesses = {}
    s0 = math.isqrt(n)
    f0 = iroot(n, 4)

    if q - p <= f0:
        classes.add("b")
        witnesses["b"] = {"difference": q - p}

    wd = weight(q - p)
    if wd <= budget.k:
        classes.add("g")
        witnesses["g"] = {"difference": q - p, "weight": wd,
                          "digits": [[s, e] for s, e in naf(q - p).terms]}

    best = min(((max(weight(a), weight(b)), weight(a), abs(a), side, a, b)
                for side, a, b in _locations(n, p, q)), default=None)
    if best is not None and best[0] <= budget.k:
        side, a, b = best[3:]
        classes.add("d")
        witnesses["d"] = {"side": side, "a": a, "b": b,
                          "weights": [weight(a), weight(b)]}

    for side, a, b in _locations(n, p, q):
        if max(abs(a), abs(b)) ** 8 <= n:
            classes.add("c")
            witnesses["c"] = {"side": side, "a": a, "b": b, "eps": [1, 8]}
            break

    delta = p + q - 2 * s0
    r = _nearest_quotient(delta, f0)
    s = delta - r * f0
    if r != 0 and weight(r) <= budget.k and weight(s) <= budget.k:
        classes.add("f")
        witnesses["f"] = {"r": r, "s": s, "weights": [weight(r), weight(s)]}

    bound = min(1 << 16, 1 << max(2, n.bit_length() // 8))
    primes = small_primes(bound)
    for label, m in (("p-1", p - 1), ("p+1", p + 1), ("q-1", q - 1),
                     ("q+1", q + 1)):
        if ref_smooth_part(m, primes) == 1:
            classes.add("a")
            witnesses["a"] = {"side": label, "bound": bound}
            break

    gap = min(s0 - p, q - s0)
    if gap > 0 and f0 > 1:
        alpha = (math.log2(gap) - math.log2(f0)) / math.log2(n)
        witnesses["meta"] = {"alpha": alpha}

    return WeakClassReport(frozenset(classes), witnesses, budget)
