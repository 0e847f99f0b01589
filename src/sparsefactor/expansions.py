"""Sparse signed-power-of-two representations and their enumeration.

The canonical form used everywhere is the nonadjacent form (NAF): the unique
signed-binary expansion with no two adjacent nonzero digits.  Any pattern of
pairwise non-adjacent signed digits *is* the NAF of its value, so enumerating
such patterns enumerates canonical values with no duplicates.

The enumeration order is fixed: weight ascending, then absolute value
ascending, then positive before negative.  Engines record stream indices in
their certificates, so this order is part of the package contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class SparseInt:
    """A value sum(sign_i * 2**exp_i) with strictly decreasing exponents."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = None
        for sign, exp in self.terms:
            if sign not in (-1, 1) or exp < 0:
                raise ValueError("terms must be (+-1, exponent >= 0)")
            if last is not None and exp >= last:
                raise ValueError("exponents must be strictly decreasing")
            last = exp

    @property
    def weight(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (sign, exp) in enumerate(self.terms):
            op = "-" if sign < 0 else ("+" if i else "")
            parts.append(f"{op}2^{exp}" if i == 0 else f"{op} 2^{exp}")
        return " ".join(parts)


def value_of(s: SparseInt) -> int:
    return sum(sign << exp for sign, exp in s.terms)


def naf(n: int) -> SparseInt:
    """The nonadjacent form of n (empty for 0)."""
    terms = []
    m, pos = abs(n), 0
    while m:
        if m & 1:
            digit = 1 if m & 3 == 1 else -1
            terms.append((digit, pos))
            m -= digit
        m >>= 1
        pos += 1
    if n < 0:
        terms = [(-sign, exp) for sign, exp in terms]
    return SparseInt(tuple(reversed(terms)))


def weight(n: int) -> int:
    """Number of nonzero NAF digits of n.

    Uses the identity wt(n) = popcount(n XOR 3n): a nonzero NAF digit sits
    exactly where adding n and 2n produces a carry-boundary bit.
    """
    m = abs(n)
    return (m ^ 3 * m).bit_count()


# A NAF led by 2^e is below 2^(e+2)/3, and 2^64/3 < 2^63: up to this v_max
# every stream value, and every intermediate 2^e +- x, fits in int64.
_INT64_VMAX = 62

# Most exponents per weight-1 run: below v_max 1024 the level is one run,
# and above it a run of Python ints holds O(v_max) bytes, not the level's
# O(v_max^2).
_WEIGHT1_RUN = 1024


def _weight_runs(w: int, v_max: int, dtype) -> Iterator[np.ndarray]:
    """Positive values of exact NAF weight w, exponents <= v_max, ascending.

    One run per leading exponent e.  A NAF led by 2^e lies in
    (2^(e+1)/3, 2^(e+2)/3) (the NAF length bound), and these ranges are
    disjoint for different e, so the runs in order of e are the whole
    level in ascending order with no sort.  The run for e is 2^e minus,
    then plus, each weight-(w-1) value with exponents <= e-2: the prefix of
    the weight-(w-1) level up to leading exponent e-2, grown one run at a
    time, so nothing is held beyond the values already produced.
    """
    if w == 1:
        for e in range(v_max + 1):
            yield np.array([1 << e], dtype=dtype)
        return
    lower = _weight_runs(w - 1, v_max - 2, dtype)
    # sym[mid - size:mid + size] is -prefix reversed, then prefix: each run
    # is one add, and the prefix grows in place at both ends
    sym = np.empty(0, dtype=dtype)
    mid = size = 0
    for e in range(2 * (w - 1), v_max + 1):
        low = next(lower)
        end = size + len(low)
        if end > mid:
            grown = np.empty(4 * end, dtype=dtype)
            grown[2 * end - size:2 * end + size] = sym[mid - size:mid + size]
            sym, mid = grown, 2 * end
        sym[mid + size:mid + end] = low
        np.negative(low[::-1], out=sym[mid - end:mid - size])
        size = end
        yield (1 << e) + sym[mid - size:mid + size]


def _max_weight(k: int, v_max: int) -> int:
    # weight w needs exponents 0, 2, ..., 2(w-1) <= v_max
    return min(k, v_max // 2 + 1)


def _stream_runs(k: int, v_max: int, signed: bool) -> Iterator[np.ndarray]:
    """The canonical stream cut into consecutive ascending runs.

    Runs are int64 arrays up to v_max = _INT64_VMAX and object arrays of
    Python ints above it.
    """
    dtype = np.int64 if v_max <= _INT64_VMAX else object
    if signed:
        yield np.zeros(1, dtype=dtype)
    for w in range(1, _max_weight(k, v_max) + 1):
        if w == 1:
            # long runs here; the one-value runs only feed weight 2
            exps = range(v_max + 1)
            runs = (np.array([1 << e for e in exps[lo:lo + _WEIGHT1_RUN]],
                             dtype=dtype) for lo in exps[::_WEIGHT1_RUN])
        else:
            runs = _weight_runs(w, v_max, dtype)
        for run in runs:
            if signed:
                both = np.empty(2 * len(run), dtype=dtype)
                both[::2] = run
                np.negative(run, out=both[1::2])
                run = both
            yield run


def sparse_values(k: int, v_max: int, signed: bool) -> Iterator[int]:
    """Every value whose NAF has weight <= k and exponents <= v_max, as
    Python ints, once each, in the canonical order: weight, then |value|,
    then positive first.  Element i is a pure function of (k, v_max, i).
    """
    if k < 1 or v_max < 0:
        raise ValueError("need k >= 1 and v_max >= 0")
    for run in _stream_runs(k, v_max, signed):
        yield from run.tolist()


def stream_length(k: int, v_max: int, signed: bool) -> int:
    """Exact number of stream elements for the given parameters.

    Weight w has C(v_max - w + 2, w) exponent sets with gaps >= 2 and
    2^(w-1) sign patterns below a leading +1.
    """
    positive = sum(math.comb(v_max - w + 2, w) << (w - 1)
                   for w in range(1, _max_weight(k, v_max) + 1))
    return 2 * positive + 1 if signed else positive


def naf_weight_stats(bits: int, samples: int, seed: int) -> tuple[float, float]:
    """Empirical mean and standard deviation of NAF weight.

    Samples uniform random `bits`-bit integers (top bit forced) and returns
    exact-integer accumulations converted to float at the end.
    """
    if bits < 8 or samples < 100:
        raise ValueError("need bits >= 8 and samples >= 100")
    rng = random.Random(seed)
    top = 1 << (bits - 1)
    s1 = s2 = 0
    for _ in range(samples):
        w = weight(rng.getrandbits(bits) | top)
        s1 += w
        s2 += w * w
    mean = s1 / samples
    var = s2 / samples - mean * mean
    return mean, var ** 0.5 if var > 0 else 0.0
