"""Sparse signed-power-of-two representations and their enumeration.

The canonical form used everywhere is the nonadjacent form (NAF): the unique
signed-binary expansion with no two adjacent nonzero digits.  Any pattern of
pairwise non-adjacent signed digits *is* the NAF of its value, so enumerating
such patterns enumerates canonical values with no duplicates.

The enumeration order is fixed: weight ascending, then absolute value
ascending, then positive before negative.  Engines record stream indices in
their certificates, so this order is part of the package contract.  Every
value is an exact Python int, made in one ascending run per leading exponent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator


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


def digits(n: int) -> list[list[int]]:
    """n's NAF as the [sign, exponent] pairs a certificate records."""
    return [[s, e] for s, e in naf(n).terms]


def from_digits(pairs) -> int:
    """The value of recorded [sign, exponent] pairs, checked as a SparseInt
    (ValueError unless they are a valid sparse form)."""
    return value_of(SparseInt(tuple((s, e) for s, e in pairs)))


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


def _run(e: int, lower: list[int]) -> list[int]:
    """2^e minus, then plus, each value of lower; 2^e alone at weight 1."""
    top = 1 << e
    if not lower:
        return [top]
    return [top - x for x in reversed(lower)] + [top + x for x in lower]


def _weight_runs(w: int, v_max: int) -> Iterator[tuple[int, list[int]]]:
    """(e, lower) per leading exponent e <= v_max of NAF weight w.

    A NAF led by 2^e lies in (2^(e+1)/3, 2^(e+2)/3) (the NAF length bound),
    so the runs _run(e, lower) in order of e are the level in ascending
    order with no sort.  lower, the weight-(w-1) values with exponents <=
    e-2, ascending, only ever grows at its end, by one run of that level.
    """
    lower: list[int] = []
    below = _weight_runs(w - 1, v_max - 2)  # lazy: never started at w = 1
    for e in range(2 * (w - 1), v_max + 1):
        if w > 1:
            lower += _run(*next(below))
        yield e, lower


def _max_weight(k: int, v_max: int) -> int:
    # weight w needs exponents 0, 2, ..., 2(w-1) <= v_max
    return min(k, v_max // 2 + 1)


def sparse_values(k: int, v_max: int, signed: bool) -> Iterator[int]:
    """Every value whose NAF has weight <= k and exponents <= v_max, as
    Python ints, once each, in the canonical order: weight, then |value|,
    then positive first.  Element i is a pure function of (k, v_max, i).
    """
    if k < 1 or v_max < 0:
        raise ValueError("need k >= 1 and v_max >= 0")
    if signed:
        yield 0
    for w in range(1, _max_weight(k, v_max) + 1):
        for e, lower in _weight_runs(w, v_max):
            for x in _run(e, lower):
                yield x
                if signed:
                    yield -x


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
