"""Weak balanced-semiprime generation, auditing, and density counters.

Weak classes (letters mirror the catalogue this toolkit targets; "e" is
deliberately absent):

  a  p-1, p+1, q-1, or q+1 is smooth below a bound derived from N's size
  b  a factor sits within N^(1/4) of sqrt(N)  (classic Fermat territory)
  c  factor = sqrt(N) + a*N^(1/4) + b with |a|, |b| <= N^(1/8)
  d  same decomposition with a and b both sparse
  f  p + q = 2*sqrt(N) + r*N^(1/4) + s with r and s sparse
  g  q - p is sparse  (sparse-difference territory)

`CLASSES` maps each letter to its generator and its membership test.  A
generator anchors one prime at the class's preferred location; the audit,
which runs every membership test against the true floor roots of the
resulting N, rejects a candidate outside the class, so every emitted
instance audits back into its class by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fermat, sparse_diff
from .arith import (iroot, is_probable_prime, pollard_pm1, prime_array,
                    prime_product, small_primes)
from .expansions import digits, weight
from .model import (
    GenerationError,
    LowOrderBaseError,
    SearchBudget,
    WeakClassReport,
)

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

    def __post_init__(self):
        if self.class_id not in CLASSES:
            raise ValueError(f"unknown class {self.class_id!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.v_max is not None and self.v_max < 0:
            raise ValueError("v_max must be >= 0")


# ---------------------------------------------------------------------------
# generation helpers
# ---------------------------------------------------------------------------

_MAX_TRIES = 10_000


def _screened_prime(cand: int) -> bool:
    # one gcd with the primes below 1000 rejects before Miller-Rabin
    if cand >= 10 ** 6 and math.gcd(cand, prime_product(1000)) != 1:
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
    """Random positive canonical sparse value: leading +, gaps >= 2.

    The weight is capped where w exponents with gaps >= 2 fit in 0..v_max,
    so the dense fallback never reaches past v_max.
    """
    w = rng.randint(1, min(max_weight, v_max // 2 + 1))
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

def _v_cap(spec, cap):
    """The sparse exponent cap: spec.v_max, never above cap."""
    return cap if spec.v_max is None else min(spec.v_max, cap)


def _gen_g(rng, bits, spec):
    v = _v_cap(spec, bits // 2 - 2)
    if v < 1:
        return None  # q - p = 1 between odd primes
    p = _random_prime(rng, bits // 2)
    for _ in range(200):
        d = _random_sparse(rng, spec.k, v)
        q = p + d
        if q < 2 * p and is_probable_prime(q):
            return p * q, p, q
    return None


def _gen_b(rng, bits, spec):
    # q < 2p by Bertrand's postulate; the audit decides q - p <= N^(1/4)
    p = _random_prime(rng, bits // 2)
    q = _prime_at_or_above(p + 2)
    return p * q, p, q


def _anchored(rng, bits, a):
    """(n, p, q) from a prime near sqrt(scale) +- a*scale^(1/4) and its prime
    cofactor, scale = 2^(bits-1), or None when unbalanced.  Classes c and d
    differ only in how they draw a."""
    scale = 1 << (bits - 1)
    a *= rng.choice((1, -1))
    offset = a * iroot(scale, 4) + rng.randrange(-(1 << 6), 1 << 6)
    u = _prime_at_or_above(math.isqrt(scale) + offset)
    v = _prime_at_or_above(scale // u - rng.randrange(1 << 6))
    p, q = min(u, v), max(u, v)
    return (u * v, p, q) if _balanced(p, q) else None


def _gen_c(rng, bits, spec):
    return _anchored(rng, bits, rng.randrange(1, 1 << max(2, bits // 8 - 1)))


def _gen_d(rng, bits, spec):
    v = _v_cap(spec, bits // 4 - 4)
    if v < 1:
        return None
    return _anchored(rng, bits, _random_sparse(rng, spec.k, v))


def _gen_f(rng, bits, spec):
    v = _v_cap(spec, bits // 4 - 4)
    if v < 1:
        return None
    scale = 1 << (bits - 1)
    s0 = math.isqrt(scale)
    f0 = iroot(scale, 4)
    r = _random_sparse(rng, spec.k, v)
    sigma = 2 * s0 + r * f0 + rng.randrange(-(1 << 6), 1 << 6)
    disc = sigma * sigma - 4 * scale
    if disc < 0:
        return None
    p = _prime_at_or_above((sigma - math.isqrt(disc)) // 2)
    q = _prime_at_or_above(sigma - p)
    return (p * q, p, q) if _balanced(p, q) else None


def _gen_a(rng, bits, spec):
    half = bits // 2
    # an N that comes out shorter than `bits` may audit with a lower
    # default bound; generate_weak's audit then rejects it and retries
    primes = small_primes(default_smoothness_bound(bits))
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
    gen, _ = CLASSES[spec.class_id]
    out = []
    budget = _audit_budget(bits, spec)
    for i in range(count):
        rng = _instance_rng(seed, i)
        for _ in range(_MAX_TRIES):
            made = gen(rng, bits, spec)
            if made is None:
                continue
            n, p, q = made
            # the audit is the class check: a candidate outside it is redrawn
            report = audit(n, (p, q), budget)
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
# membership tests: (n, p, q, k, s0, f0) -> the class's witness dict or None,
# with s0 = isqrt(N), f0 = iroot(N, 4) and k the sparse weight cap
# ---------------------------------------------------------------------------

def _locations(p, q, s0, f0):
    """(side, a, b) with factor = sqrt(N) + a*N^(1/4) + b, per factor."""
    for side, f in (("p", p), ("q", q)):
        a = _nearest_quotient(f - s0, f0)
        if a != 0:  # a = 0 is plain Fermat proximity: class b, not c or d
            yield side, a, f - s0 - a * f0


def _smooth(m: int, bound: int) -> bool:
    """Whether m >= 1 has no prime factor above bound.

    With P the product of the primes <= bound and e = m.bit_length(), m
    divides P^e exactly then: a prime power p^a dividing m has
    p^a <= m < 2^e, so a < e.
    """
    return pow(prime_product(bound) % m, m.bit_length(), m) == 0


def _in_a(n, p, q, k, s0, f0):
    bound = default_smoothness_bound(n.bit_length())
    for side, m in (("p-1", p - 1), ("p+1", p + 1), ("q-1", q - 1),
                    ("q+1", q + 1)):
        if _smooth(m, bound):
            return {"side": side, "bound": bound}
    return None


def _in_b(n, p, q, k, s0, f0):
    return {"difference": q - p} if q - p <= f0 else None


def _in_c(n, p, q, k, s0, f0):
    """The first location with |a|, |b| <= N^(1/8)."""
    for side, a, b in _locations(p, q, s0, f0):
        if max(abs(a), abs(b)) ** 8 <= n:
            return {"side": side, "a": a, "b": b, "eps": [1, 8]}
    return None


def _in_d(n, p, q, k, s0, f0):
    """The sparsest location with a and b of weight <= k."""
    best = min(((max(weight(a), weight(b)), weight(a), abs(a), side, a, b)
                for side, a, b in _locations(p, q, s0, f0)), default=None)
    if best is None or best[0] > k:
        return None
    side, a, b = best[3:]
    return {"side": side, "a": a, "b": b, "weights": [weight(a), weight(b)]}


def _in_f(n, p, q, k, s0, f0):
    delta = p + q - 2 * s0
    r = _nearest_quotient(delta, f0)
    s = delta - r * f0
    if r == 0 or weight(r) > k or weight(s) > k:
        return None
    return {"r": r, "s": s, "weights": [weight(r), weight(s)]}


def _in_g(n, p, q, k, s0, f0):
    wd = weight(q - p)
    if wd > k:
        return None
    return {"difference": q - p, "weight": wd, "digits": digits(q - p)}


# The weak-class catalogue: letter -> (generator, membership test).
CLASSES = {"a": (_gen_a, _in_a), "b": (_gen_b, _in_b), "c": (_gen_c, _in_c),
           "d": (_gen_d, _in_d), "f": (_gen_f, _in_f), "g": (_gen_g, _in_g)}


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def check_audit_input(n: int,
                      factors: Optional[tuple[int, int]] = None) -> None:
    """Raise ValueError unless n can be audited as a semiprime p*q.

    n must be odd and >= 15.  Stated factors must satisfy 1 < p <= q and
    p*q == n; without them, n must not be a probable prime.
    """
    if n < 15 or n % 2 == 0:
        raise ValueError(f"N = {n} is not an odd number >= 15")
    if factors is None:
        if is_probable_prime(n):
            raise ValueError(f"N = {n} is a probable prime")
        return
    p, q = factors
    if not 1 < p <= q:
        raise ValueError("stated factors must exceed 1, with p <= q")
    if p * q != n:
        raise ValueError(f"stated factors do not multiply to {n}")


def audit(n: int, factors: Optional[tuple[int, int]] = None,
          budget: Optional[SearchBudget] = None) -> WeakClassReport:
    """Classify n into weak classes, with per-class witnesses.

    With known factors, membership is decided by direct arithmetic.
    Without them, budgeted detection engines run and any success recurses
    into the known-factor path; exhaustion means "not detected under
    budget", never "not weak".  Input that check_audit_input rejects
    raises ValueError.
    """
    if factors is not None:
        factors = tuple(sorted(factors))
    check_audit_input(n, factors)
    if budget is None:
        budget = SearchBudget.default_for(n)

    if factors is None:
        return _audit_blind(n, budget)

    p, q = factors
    s0 = math.isqrt(n)
    f0 = iroot(n, 4)
    witnesses = {cid: hit for cid, (_, member) in CLASSES.items()
                 if (hit := member(n, p, q, budget.k, s0, f0)) is not None}
    classes = frozenset(witnesses)

    # measured closeness exponent: how near a factor sits to sqrt(N),
    # on the N^(1/4 + alpha) scale
    gap = min(s0 - p, q - s0)
    if gap > 0 and f0 > 1:
        alpha = (math.log2(gap) - math.log2(f0)) / math.log2(n)
        witnesses["meta"] = {"alpha": alpha}

    return WeakClassReport(classes, witnesses, budget)


def _audit_blind(n, budget):
    capped = replace(budget, k=min(budget.k, 3),
                     t_max=min(budget.t_max, 1 << 12),
                     op_cap=min(budget.op_cap, 200_000))
    # sparse differences live at the sqrt(N) scale, twice the coefficient
    # exponent range the other engines use
    diff_budget = replace(capped, v_max=n.bit_length() // 2 + 1)
    # whichever engine splits n, only the known-factor audit decides the
    # classes: a BSGS or multiplier split says nothing about q - p
    attempts = [
        lambda: fermat.classic_fermat(n, min(capped.t_max, 1 << 12)),
        lambda: sparse_diff.sparse_difference_factor(n, diff_budget),
        lambda: fermat.extended_fermat_sparse(n, capped),
        lambda: pollard_pm1(n, default_smoothness_bound(n.bit_length())),
    ]
    if n < fermat.BSGS_LIMIT:
        attempts.append(lambda: fermat.bsgs_fermat(n, 2))
    for run in attempts:
        try:
            result = run()
        except (ValueError, LowOrderBaseError):
            continue
        if result.factored:
            report = audit(n, result.factors, budget)
            witnesses = dict(report.witnesses)
            witnesses["meta"] = dict(witnesses.get("meta", {}))
            witnesses["meta"]["detected_by"] = result.certificate.method
            return WeakClassReport(report.classes, witnesses, budget)
    return WeakClassReport(frozenset(),
                           {"meta": {"note": "not detected under budget"}},
                           budget)


# ---------------------------------------------------------------------------
# density counters
# ---------------------------------------------------------------------------

def fermat_count(x: int, multiplier: int = 1) -> tuple[int, int, float]:
    """Exact (F, B, F/B) over semiprimes pq <= x.

    F counts pairs with q - p <= multiplier * floor((pq)^(1/4)); B counts
    balanced pairs p < q < 2p.  Enumeration is over the smaller prime, with
    range queries answered from the sieve.
    """
    if x < 15 or x > 10 ** 8:
        raise ValueError("x must lie in [15, 10^8]")
    limit = x // 3
    primes = prime_array(limit)[1:]  # odd semiprimes only
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
    primes = prime_array(x)
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
