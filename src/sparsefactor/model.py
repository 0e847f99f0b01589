"""Shared domain types: factoring results, certificates, budgets, reports.

Every search engine in this package returns a :class:`FactorResult` whose
certificate can be re-verified by direct arithmetic, without redoing the
search.  JSON encoding keeps all large integers as decimal strings so that
round trips are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

STATUS_FACTORED = "Factored"
STATUS_EXHAUSTED = "Exhausted"
STATUS_PROBABLE_PRIME = "ProbablePrime"
STATUS_TRIVIAL_INPUT = "TrivialInput"

METHOD_CLASSIC_FERMAT = "ClassicFermat"
METHOD_EXTENDED_FERMAT_OFFSET = "ExtendedFermatOffset"
METHOD_EXTENDED_FERMAT_SPARSE = "ExtendedFermatSparse"
METHOD_BSGS_FERMAT = "BsgsFermat"
METHOD_SPARSE_DIFFERENCE = "SparseDifference"
METHOD_SPARSE_EXPONENT = "SparseExponent"
METHOD_TRIAL_DIVISION = "TrialDivision"
METHOD_POLLARD_PM1 = "PollardPm1"

_METHODS = {
    METHOD_CLASSIC_FERMAT,
    METHOD_EXTENDED_FERMAT_OFFSET,
    METHOD_EXTENDED_FERMAT_SPARSE,
    METHOD_BSGS_FERMAT,
    METHOD_SPARSE_DIFFERENCE,
    METHOD_SPARSE_EXPONENT,
    METHOD_TRIAL_DIVISION,
    METHOD_POLLARD_PM1,
}

# Witness fields that scale with N are serialized as decimal strings; small
# structural fields (exponents, indices, counters) stay plain ints.
_BIG_WITNESS_KEYS = frozenset(
    {"x", "y", "a", "b", "t", "u", "base", "divisor", "gcd", "w", "value",
     "lo", "hi", "s", "p", "q", "e", "period", "factors", "difference"}
)


@dataclass(frozen=True)
class Certificate:
    """Re-verifiable witness of one factorization."""

    method: str
    witness: dict[str, Any]

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown certificate method {self.method!r}")


@dataclass(frozen=True)
class FactorResult:
    """Outcome of one factoring attempt."""

    status: str
    factors: Optional[tuple[int, int]] = None
    certificate: Optional[Certificate] = None
    ops: int = 0

    def __post_init__(self):
        if self.status == STATUS_FACTORED:
            if self.factors is None:
                raise ValueError("Factored result needs factors")
            p, q = self.factors
            if not (1 < p <= q):
                raise ValueError("factors must satisfy 1 < p <= q")

    @property
    def factored(self) -> bool:
        return self.status == STATUS_FACTORED


def factored(p: int, q: int, certificate: Certificate, ops: int) -> FactorResult:
    if p > q:
        p, q = q, p
    return FactorResult(STATUS_FACTORED, (p, q), certificate, ops)


def exhausted(ops: int) -> FactorResult:
    return FactorResult(STATUS_EXHAUSTED, None, None, ops)


def probable_prime(ops: int = 0) -> FactorResult:
    return FactorResult(STATUS_PROBABLE_PRIME, None, None, ops)


def trivial_input(ops: int = 0) -> FactorResult:
    return FactorResult(STATUS_TRIVIAL_INPUT, None, None, ops)


def trivial_or_even(n: int) -> Optional[FactorResult]:
    """The sparse engines' answer for n < 3 or an even n, before any search;
    None for an odd n >= 3."""
    if n < 3:
        return trivial_input()
    if n % 2 == 0:
        cert = Certificate(METHOD_TRIAL_DIVISION, {"divisor": 2})
        return factored(2, n // 2, cert, 0)
    return None


@dataclass(frozen=True)
class SearchBudget:
    """Shared parameterization of all sparse search engines.

    k bounds the number of nonzero signed digits, v_max the highest digit
    position, t_max the residual offset scan radius.  All defaults are
    derived from the input size with base-2 logarithms (via bit_length);
    the log base is deliberately explicit because it materially changes
    the search space.
    """

    k: int
    v_max: int
    t_max: int
    multipliers: tuple[int, ...] = (1, 2, 4, 8)
    op_cap: int = 1 << 40
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.v_max < 1 or self.t_max < 0 or self.op_cap < 1:
            raise ValueError("budget requires k >= 1, v_max >= 1, t_max >= 0, "
                             "op_cap >= 1")
        if not self.multipliers or min(self.multipliers) < 1:
            raise ValueError("budget requires one or more multipliers, "
                             "each >= 1")

    @classmethod
    def default_for(cls, n: int, **overrides) -> "SearchBudget":
        bits = max(n.bit_length(), 2)
        params = dict(
            k=max(1, (bits - 1).bit_length()),  # ceil(log2 log2 n), c0 = 1
            v_max=(bits + 3) // 4,
            t_max=bits * bits,
        )
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class WeakClassReport:
    """Which weak classes an integer belongs to, with per-class evidence."""

    classes: frozenset[str]
    witnesses: dict[str, Any] = field(default_factory=dict)
    checked_with: Optional[SearchBudget] = None

    def __post_init__(self):
        from .weakset import CLASSES  # weakset builds on these types
        bad = set(self.classes) - set(CLASSES)
        if bad:
            raise ValueError(f"unknown weak classes {sorted(bad)}")


class GenerationError(RuntimeError):
    """Raised when a weak-instance generator cannot satisfy its spec."""


class LowOrderBaseError(RuntimeError):
    """Raised when a BSGS base has visibly tiny multiplicative order."""


# ---------------------------------------------------------------------------
# JSON encoding (decimal-string integers, fixed field names)
# ---------------------------------------------------------------------------

def _encode_value(key, value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if key in _BIG_WITNESS_KEYS else value
    if isinstance(value, (list, tuple)):
        return [_encode_value(key, v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_value(k, v) for k, v in value.items()}
    return value

def _decode_value(key, value):
    if isinstance(value, str) and key in _BIG_WITNESS_KEYS:
        try:
            return int(value)
        except ValueError:
            return value
    if isinstance(value, list):
        return [_decode_value(key, v) for v in value]
    if isinstance(value, dict):
        return {k: _decode_value(k, v) for k, v in value.items()}
    return value


def certificate_from_dict(data: dict) -> Certificate:
    return Certificate(data["method"], _decode_value("witness", data["witness"]))


def result_to_dict(result: FactorResult) -> dict:
    out: dict[str, Any] = {"status": result.status, "ops": result.ops}
    if result.factors is not None:
        out["p"] = str(result.factors[0])
        out["q"] = str(result.factors[1])
    if result.certificate is not None:
        out["method"] = result.certificate.method
        out["witness"] = _encode_value("witness", result.certificate.witness)
    return out


def result_from_dict(data: dict) -> FactorResult:
    factors = None
    if "p" in data:
        factors = (int(data["p"]), int(data["q"]))
    cert = certificate_from_dict(data) if "method" in data else None
    return FactorResult(data["status"], factors, cert, data.get("ops", 0))


def result_to_json(result: FactorResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def result_from_json(text: str) -> FactorResult:
    return result_from_dict(json.loads(text))


def report_to_dict(report: WeakClassReport) -> dict:
    out: dict[str, Any] = {
        "classes": sorted(report.classes),
        "witnesses": _encode_value("witness", report.witnesses),
    }
    if report.checked_with is not None:
        b = report.checked_with
        out["checked_with"] = {
            "k": b.k, "v_max": b.v_max, "t_max": b.t_max,
            "multipliers": list(b.multipliers), "op_cap": b.op_cap, "seed": b.seed,
        }
    return out


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

def verify_certificate(n: int, cert: Certificate) -> bool:
    """Check that a certificate reconstructs a nontrivial factorization of n.

    Verification is direct arithmetic only (roots, gcds, modular powers);
    a malformed witness yields False, never an exception.
    """
    if n <= 1:
        raise ValueError("n must exceed 1")
    try:
        return _verify(n, cert)
    except Exception:
        return False


def _verify(n: int, cert: Certificate) -> bool:
    # local imports: arith/expansions build on model's result types
    from . import arith, expansions

    w = cert.witness
    method = cert.method

    if method == METHOD_CLASSIC_FERMAT:
        x, y = int(w["x"]), int(w["y"])
        return x * x - y * y == n and x - y > 1 and x + y < n + 1

    if method in (METHOD_TRIAL_DIVISION, METHOD_POLLARD_PM1) or (
            method == METHOD_BSGS_FERMAT and "divisor" in w):
        d = int(w["divisor"])  # for BSGS, a lucky gcd split
        return 1 < d < n and n % d == 0

    if method in (METHOD_EXTENDED_FERMAT_OFFSET, METHOD_EXTENDED_FERMAT_SPARSE,
                  METHOD_BSGS_FERMAT):
        x, y = int(w["x"]), int(w["y"])
        if x * x - y * y != 4 * n or (x - y) % 2:
            return False
        p = (x - y) // 2
        if not (1 < p and p * ((x + y) // 2) == n):
            return False
        if "a" in w and "t" in w:
            # re-derive the offset-scan anchor
            base = math.isqrt(n) + int(w["a"]) * arith.iroot(n, 4)
            if base <= 0 or base + n // base + int(w["t"]) != x:
                return False
        if "digits" in w:
            a_val = expansions.from_digits(w["digits"])
            if "a" in w and a_val != int(w["a"]):
                return False
        return True

    if method == METHOD_SPARSE_DIFFERENCE:
        a = int(w["a"])
        b = int(w["b"])
        sign = int(w["sign_bn"])
        disc = a * a - 4 * sign * b * n
        r = arith.perfect_square(disc) if disc >= 0 else None
        if r is None:
            return False
        u = int(w["u"])
        if (a + r) % 2 or u not in ((a + r) // 2, abs(a - r) // 2):
            return False
        g = math.gcd(u, n)
        return 1 < g < n and n % g == 0

    if method == METHOD_SPARSE_EXPONENT:
        return _verify_sparse_exponent(n, w)

    return False


def _verify_sparse_exponent(n: int, w: dict) -> bool:
    from . import expansions

    kind = w.get("kind", "grid")
    base = int(w["base"])

    if kind == "lucky":
        d = int(w["divisor"])
        return 1 < d < n and n % d == 0 and math.gcd(base, n) == d

    if kind == "germain":
        e = 2 * int(w["multiple"]) * n
        d = math.gcd(pow(base, e, n) - 1, n)
        return 1 < d < n and n % d == 0

    if kind == "cyclotomic":
        e = (n - 1) * int(w["a"]) + int(w["period"]) * int(w["b"])
        d = math.gcd(pow(base, abs(e), n) - 1, n)
        return 1 < d < n and n % d == 0

    if kind == "grid":
        power = base % n
        for a_digits, b_digits in w["trace"]:
            f = (expansions.from_digits(a_digits) * n
                 + expansions.from_digits(b_digits))
            if f == 0:
                return False
            power = pow(power, abs(f), n)
        side = int(w.get("gcd_side", -1))
        d = math.gcd(power + 1, n) if side == 1 else math.gcd(power - 1, n)
        return 1 < d < n and n % d == 0

    if kind == "unity_root":
        # recompute T^(odd part of E) factor by factor, then redo the
        # recorded squarings; E itself is never materialized
        power = base % n
        for f in w["factors"]:
            f = abs(int(f))
            if f == 0:
                return False
            power = pow(power, f >> ((f & -f).bit_length() - 1), n)
        for _ in range(int(w["square_ups"])):
            power = power * power % n
        if power in (1, n - 1) or power * power % n != 1:
            return False
        d = math.gcd(power - 1, n)
        return 1 < d < n and n % d == 0

    return False
