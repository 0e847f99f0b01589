"""Weak balanced-semiprime generation, auditing, and density counters.

Weak classes (letters mirror the catalogue this toolkit targets; "e" is
deliberately absent):

  a  p-1, p+1, q-1, or q+1 is smooth below a practical bound
  b  a factor sits within N^(1/4) of sqrt(N)  (classic Fermat territory)
  c  factor = sqrt(N) + a*N^(1/4) + b with small |a| <= N^eps
  d  same decomposition with a and b both sparse
  f  p + q = 2*sqrt(N) + r*N^(1/4) + s with r and s sparse
  g  q - p is sparse  (sparse-difference territory)

Generators build instances by anchoring one prime at the class's preferred
location and re-verifying the class predicate against the true floor roots
of the resulting N, retrying until it holds, so every emitted instance
audits back into its class by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fermat, sparse_diff
from .arith import iroot, isqrt, is_probable_prime, pollard_pm1, small_primes
from .expansions import naf, weight
from .model import (
    GenerationError,
    LowOrderBaseError,
    SearchBudget,
    WeakClassReport,
)

_CLASS_IDS = frozenset("abcdfg")


def default_smoothness_bound(bits: int) -> int:
    """Class-a smoothness bound for a `bits`-bit N, shared by generator and
    audit.  A fixed bound is vacuous at toy scale (every tiny p-1 is
    smooth), so it scales with the input, up to 2^16."""
    return min(1 << 16, 1 << max(2, bits // 8))


@dataclass(frozen=True)
class WeakClassSpec:
    """Parameters for one weak class; unused fields are ignored."""

    class_id: str
    k: int = 3                      # sparse weight cap (c/d/f/g)
    v_max: Optional[int] = None     # sparse exponent cap; bits-derived default
    smoothness_bound: Optional[int] = None  # class a; None: size default
    eps_num: int = 1                # class c: |a| <= N^(num/den)
    eps_den: int = 8

    def __post_init__(self):
        if self.class_id not in _CLASS_IDS:
            raise ValueError(f"unknown class {self.class_id!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 < 4 * self.eps_num < self.eps_den):
            raise ValueError("epsilon must lie in (0, 1/4)")


# ---------------------------------------------------------------------------
# generation helpers
# ---------------------------------------------------------------------------

_MAX_TRIES = 10_000
_SCREEN_PRIMES = small_primes(1000)[1:]  # cheap rejection before Miller-Rabin


def _screened_prime(cand: int) -> bool:
    if cand < 10 ** 6:
        return is_probable_prime(cand)
    for p in _SCREEN_PRIMES:
        if cand % p == 0:
            return False
    return is_probable_prime(cand)


def _random_prime(rng: random.Random, bits: int) -> int:
    if bits < 3:
        raise GenerationError("generation exhausted")
    for _ in range(_MAX_TRIES):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _screened_prime(cand):
            return cand
    raise GenerationError("generation exhausted")


def _prime_at_or_above(start: int, limit_tries: int = _MAX_TRIES) -> int:
    cand = start | 1
    for _ in range(limit_tries):
        if _screened_prime(cand):
            return cand
        cand += 2
    raise GenerationError("generation exhausted")


def _random_sparse(rng: random.Random, max_weight: int, v_max: int) -> int:
    """Random positive canonical sparse value: leading +, gaps >= 2."""
    w = rng.randint(1, max_weight)
    for _ in range(200):
        exps = sorted(rng.sample(range(v_max + 1), w))
        if all(b - a >= 2 for a, b in zip(exps, exps[1:])):
            break
    else:
        exps = list(range(0, 2 * w, 2))  # dense fallback, always valid
    val = 1 << exps[-1]
    for e in exps[:-1]:
        val += (1 << e) * rng.choice((1, -1))
    return val


def _nearest_quotient(delta: int, unit: int) -> int:
    return (2 * delta + unit) // (2 * unit)


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 0x9E3779B97F4A7C15 + index) & (1 << 64) - 1)


def _balanced(p: int, q: int) -> bool:
    return p < q < 2 * p


# ---------------------------------------------------------------------------
# per-class generators (each returns (n, p, q) or None to retry)
# ---------------------------------------------------------------------------

def _gen_g(rng, bits, spec):
    half = bits // 2
    v = spec.v_max if spec.v_max is not None else half - 2
    v = min(v, half - 2)
    p = _random_prime(rng, half)
    for _ in range(200):
        d = _random_sparse(rng, spec.k, v)
        q = p + d
        if q < 2 * p and is_probable_prime(q):
            return p * q, p, q
    return None


def _gen_b(rng, bits, spec):
    half = bits // 2
    p = _random_prime(rng, half)
    q = _prime_at_or_above(p + 2)
    n = p * q
    if _balanced(p, q) and q - p <= iroot(n, 4):
        return n, p, q
    return None


def _anchored_pair(rng, bits, offset):
    """Primes u (near sqrt(scale) + offset) and v (cofactor); n = u*v."""
    scale = 1 << (bits - 1)
    s0 = isqrt(scale)
    u = _prime_at_or_above(s0 + offset)
    v = _prime_at_or_above(scale // u - rng.randrange(1 << 6))
    return u * v, min(u, v), max(u, v)


def _gen_d(rng, bits, spec):
    quarter = bits // 4
    v = min(spec.v_max if spec.v_max is not None else quarter - 4, quarter - 4)
    if v < 1:
        return None
    f0 = iroot(1 << (bits - 1), 4)
    a = _random_sparse(rng, spec.k, v) * rng.choice((1, -1))
    delta = rng.randrange(-(1 << 6), 1 << 6)
    n, p, q = _anchored_pair(rng, bits, a * f0 + delta)
    if not _balanced(p, q):
        return None
    if _decompose_factor(n, p, q, spec.k) is None:
        return None
    return n, p, q


def _gen_c(rng, bits, spec):
    a_bits = max(2, bits * spec.eps_num // spec.eps_den - 1)
    f0 = iroot(1 << (bits - 1), 4)
    a = rng.randrange(1, 1 << a_bits) * rng.choice((1, -1))
    delta = rng.randrange(-(1 << 6), 1 << 6)
    n, p, q = _anchored_pair(rng, bits, a * f0 + delta)
    if not _balanced(p, q):
        return None
    if _decompose_eps(n, p, q, spec.eps_num, spec.eps_den) is None:
        return None
    return n, p, q


def _gen_f(rng, bits, spec):
    quarter = bits // 4
    v = min(spec.v_max if spec.v_max is not None else quarter - 4, quarter - 4)
    if v < 1:
        return None
    scale = 1 << (bits - 1)
    s0 = isqrt(scale)
    f0 = iroot(scale, 4)
    r = _random_sparse(rng, spec.k, v)
    sigma = 2 * s0 + r * f0 + rng.randrange(-(1 << 6), 1 << 6)
    disc = sigma * sigma - 4 * scale
    if disc < 0:
        return None
    p = _prime_at_or_above((sigma - isqrt(disc)) // 2)
    q = _prime_at_or_above(sigma - p)
    n = p * q
    if not _balanced(p, q):
        return None
    if _decompose_sum(n, p, q, spec.k) is None:
        return None
    return n, p, q


def _gen_a(rng, bits, spec):
    half = bits // 2
    # an N that comes out shorter than `bits` may audit with a lower
    # default bound; generate_weak's audit then rejects it and retries
    primes = small_primes(spec.smoothness_bound
                          or default_smoothness_bound(bits))
    for _ in range(200):
        prod = 2
        while prod.bit_length() < half - 1:
            prod *= primes[rng.randrange(1, len(primes))]
        p = prod + 1
        if p.bit_length() not in (half, half - 1, half + 1):
            continue
        if not is_probable_prime(p):
            continue
        q = _prime_at_or_above(p + 2 + rng.randrange(max(2, p // 4)))
        if _balanced(p, q):
            return p * q, p, q
    return None


_GENERATORS = {"a": _gen_a, "b": _gen_b, "c": _gen_c, "d": _gen_d,
               "f": _gen_f, "g": _gen_g}


def generate_weak(spec: WeakClassSpec, bits: int, count: int,
                  seed: int) -> list[tuple[int, int, int, WeakClassReport]]:
    """Emit `count` balanced semiprimes in the requested class.

    Deterministic for a given seed; each instance draws from its own
    derived generator so parallel production stays reproducible.
    """
    if bits < 32:
        raise GenerationError("generation exhausted")  # too few primes below
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = _GENERATORS[spec.class_id]
    out = []
    budget = _audit_budget(bits, spec)
    for i in range(count):
        rng = _instance_rng(seed, i)
        for _ in range(_MAX_TRIES):
            made = gen(rng, bits, spec)
            if made is None:
                continue
            n, p, q = made
            report = audit(n, (p, q), budget,
                           smoothness_bound=spec.smoothness_bound,
                           eps=(spec.eps_num, spec.eps_den))
            if spec.class_id in report.classes:
                out.append((n, p, q, report))
                break
        else:
            raise GenerationError("generation exhausted")
    return out


def _audit_budget(bits: int, spec: WeakClassSpec) -> SearchBudget:
    v = spec.v_max if spec.v_max is not None else max(1, bits // 2)
    return SearchBudget(k=spec.k, v_max=max(1, v), t_max=max(16, bits * bits))


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _decompose_factor(n, p, q, k):
    """Sparse (a, b) location of a factor around sqrt(N), or None."""
    s0 = isqrt(n)
    f0 = iroot(n, 4)
    best = None
    for side, f in (("p", p), ("q", q)):
        a = _nearest_quotient(f - s0, f0)
        b = f - s0 - a * f0
        if a == 0:
            continue  # a = 0 is plain Fermat proximity: class b, not d
        wa, wb = weight(a), weight(b)
        if wa <= k and wb <= k:
            cand = (max(wa, wb), wa, abs(a), side, a, b)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return best[0], best[3], best[4], best[5]


def _decompose_eps(n, p, q, num, den):
    s0 = isqrt(n)
    f0 = iroot(n, 4)
    for side, f in (("p", p), ("q", q)):
        a = _nearest_quotient(f - s0, f0)
        b = f - s0 - a * f0
        if a == 0:
            continue
        if abs(a) ** den <= n ** num and abs(b) ** (4 * den) <= n ** (den - 4 * num):
            return side, a, b
    return None


def _decompose_sum(n, p, q, k):
    s0 = isqrt(n)
    f0 = iroot(n, 4)
    delta = p + q - 2 * s0
    r = _nearest_quotient(delta, f0)
    s = delta - r * f0
    if r != 0 and weight(r) <= k and weight(s) <= k:
        return r, s
    return None


def _smooth_part(m: int, primes) -> int:
    for p in primes:
        while m % p == 0:
            m //= p
        if m == 1:
            break
    return m


def audit(n: int, factors: Optional[tuple[int, int]] = None,
          budget: Optional[SearchBudget] = None,
          smoothness_bound: Optional[int] = None,
          eps: tuple[int, int] = (1, 8)) -> WeakClassReport:
    """Classify n into weak classes, with per-class witnesses.

    With known factors, membership is decided by direct arithmetic.
    Without them, budgeted detection engines run and any success recurses
    into the known-factor path; exhaustion means "not detected under
    budget", never "not weak".
    """
    if n < 15:
        raise ValueError("n must be >= 15")
    if budget is None:
        budget = SearchBudget.default_for(n)
    if smoothness_bound is None:
        smoothness_bound = default_smoothness_bound(n.bit_length())

    if factors is None:
        return _audit_blind(n, budget, smoothness_bound, eps)

    p, q = sorted(factors)
    if p * q != n:
        raise ValueError("claimed factors do not multiply to n")
    classes: set[str] = set()
    witnesses: dict = {}
    s0 = isqrt(n)
    f0 = iroot(n, 4)

    if q - p <= f0:
        classes.add("b")
        witnesses["b"] = {"difference": q - p}

    wd = weight(q - p)
    if wd <= budget.k:
        classes.add("g")
        witnesses["g"] = {"difference": q - p, "weight": wd,
                          "digits": [[s, e] for s, e in naf(q - p).terms]}

    hit = _decompose_factor(n, p, q, budget.k)
    if hit is not None:
        _, side, a, b = hit
        classes.add("d")
        witnesses["d"] = {"side": side, "a": a, "b": b,
                          "weights": [weight(a), weight(b)]}

    hit = _decompose_eps(n, p, q, eps[0], eps[1])
    if hit is not None:
        side, a, b = hit
        classes.add("c")
        witnesses["c"] = {"side": side, "a": a, "b": b,
                          "eps": [eps[0], eps[1]]}

    hit = _decompose_sum(n, p, q, budget.k)
    if hit is not None:
        r, s = hit
        classes.add("f")
        witnesses["f"] = {"r": r, "s": s, "weights": [weight(r), weight(s)]}

    primes = small_primes(smoothness_bound)
    for label, m in (("p-1", p - 1), ("p+1", p + 1), ("q-1", q - 1),
                     ("q+1", q + 1)):
        if _smooth_part(m, primes) == 1:
            classes.add("a")
            witnesses["a"] = {"side": label, "bound": smoothness_bound}
            break

    # measured closeness exponent: how near a factor sits to sqrt(N),
    # on the N^(1/4 + alpha) scale
    gap = min(s0 - p, q - s0)
    if gap > 0 and f0 > 1:
        alpha = (math.log2(gap) - math.log2(f0)) / math.log2(n)
        witnesses["meta"] = {"alpha": alpha}

    return WeakClassReport(frozenset(classes), witnesses, budget)


def _audit_blind(n, budget, smoothness_bound, eps):
    capped = SearchBudget(k=min(budget.k, 3), v_max=budget.v_max,
                          t_max=min(budget.t_max, 1 << 12),
                          multipliers=budget.multipliers,
                          op_cap=min(budget.op_cap, 200_000),
                          seed=budget.seed)
    # sparse differences live at the sqrt(N) scale, twice the coefficient
    # exponent range the other engines use
    diff_budget = SearchBudget(k=capped.k, v_max=n.bit_length() // 2 + 1,
                               t_max=capped.t_max,
                               multipliers=capped.multipliers,
                               op_cap=capped.op_cap, seed=capped.seed)
    # whichever engine splits n, only the known-factor audit decides the
    # classes: a BSGS or multiplier split says nothing about q - p
    attempts = [
        lambda: fermat.classic_fermat(n, min(capped.t_max, 1 << 12)),
        lambda: sparse_diff.sparse_difference_factor(n, diff_budget),
        lambda: fermat.extended_fermat_sparse(n, capped),
        lambda: pollard_pm1(n, min(smoothness_bound, 100_000)),
    ]
    if n < 1 << 56:  # keep the baby-step table desk-sized
        attempts.append(lambda: _bsgs_guarded(n))
    for run in attempts:
        try:
            result = run()
        except (ValueError, LowOrderBaseError):
            continue
        if result.factored:
            report = audit(n, result.factors, budget,
                           smoothness_bound=smoothness_bound, eps=eps)
            witnesses = dict(report.witnesses)
            witnesses["meta"] = dict(witnesses.get("meta", {}))
            witnesses["meta"]["detected_by"] = result.certificate.method
            return WeakClassReport(report.classes, witnesses, budget)
    return WeakClassReport(frozenset(),
                           {"meta": {"note": "not detected under budget"}},
                           budget)


def _bsgs_guarded(n):
    return fermat.bsgs_fermat(n, 2, balanced_hint=True)


# ---------------------------------------------------------------------------
# density counters
# ---------------------------------------------------------------------------

def _sieve_array(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def fermat_count(x: int, multiplier: int = 1) -> tuple[int, int, float]:
    """Exact (F, B, F/B) over semiprimes pq <= x.

    F counts pairs with q - p <= multiplier * floor((pq)^(1/4)); B counts
    balanced pairs p < q < 2p.  Enumeration is over the smaller prime, with
    range queries answered from the sieve.
    """
    if x < 15 or x > 10 ** 8:
        raise ValueError("x must lie in [15, 10^8]")
    limit = x // 3
    primes = np.flatnonzero(_sieve_array(limit))[1:]  # odd semiprimes only
    f_count = 0
    b_count = 0
    root = math.isqrt(x)
    gap_cap = multiplier * iroot(x, 4)  # (pq)^(1/4) <= x^(1/4): safe cutoff
    top = int(np.searchsorted(primes, root, side="right"))
    for i in range(top):
        p = int(primes[i])
        hi = x // p
        cap = min(2 * p - 1, hi)
        if cap > p:
            b_count += int(np.searchsorted(primes, cap, side="right")) - (i + 1)
        for j in range(i + 1, len(primes)):
            q = int(primes[j])
            if p * q > x or q - p > gap_cap:
                break
            if q - p <= multiplier * iroot(p * q, 4):
                f_count += 1
    ratio = f_count / b_count if b_count else 0.0
    return f_count, b_count, ratio


def romanoff_count(x: int) -> int:
    """Exact count of n <= x of the form prime + 2^v with v >= 0."""
    if x < 0 or x > 10 ** 7:
        raise ValueError("x must lie in [0, 10^7]")
    if x < 3:
        return 0
    flags = _sieve_array(x)
    primes = np.flatnonzero(flags)
    hits = np.zeros(x + 1, dtype=bool)
    power = 1
    while power + 2 <= x:
        reach = primes[primes <= x - power]
        hits[reach + power] = True
        power <<= 1
    return int(np.count_nonzero(hits))


def balanced_bounds_check(p: int, q: int, a_ratio: int = 2) -> bool:
    """Exact check of the balanced-factor envelope for p < q < a*p.

    Verifies sqrt(N/a) < p < sqrt(N) < q < sqrt(aN), the sum bounds
    2*sqrt(N) < p+q < (1 + 1/a)*sqrt(aN), and the difference ceiling
    q - p < (sqrt(a) - 1/sqrt(a))*sqrt(N), all by integer squaring.
    """
    if a_ratio < 2:
        raise ValueError("a_ratio must be >= 2")
    if not (0 < p < q < a_ratio * p):
        return False
    n = p * q
    a = a_ratio
    if not (a * p * p > n and p * p < n):
        return False
    if not (q * q > n and q * q < a * n):
        return False
    s = p + q
    if not (s * s > 4 * n and a * s * s < (a + 1) * (a + 1) * n):
        return False
    d = q - p
    return a * d * d < (a - 1) * (a - 1) * n
