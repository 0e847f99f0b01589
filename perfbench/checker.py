"""Exact checks of every request's output against the benchmark's ground truth.

Weak-class predicates follow the class definitions in the docstring of
``sparsefactor.weakset`` and are evaluated with ``numtheory``; only
certificate re-verification calls into the package, through
``model.verify_certificate``, which the checker is meant to exercise.
"""

from __future__ import annotations

import json
import math
import time

import numtheory as nt

EXIT_FOR_STATUS = {"Factored": 0, "Exhausted": 1}
# certificates whose witness (x, y) satisfies x^2 - y^2 = 4N with p = (x-y)/2
FOUR_N_METHODS = ("ExtendedFermatOffset", "ExtendedFermatSparse", "BsgsFermat")
GENERATOR_K = 3              # `generate` default --k
GENERATOR_SMOOTHNESS = 1 << 16
EPS = (1, 8)                 # class c: |a|, |b| <= N^(1/8)


class CheckFailure(Exception):
    """A request's output is wrong; the message says how."""


def default_k(n: int) -> int:
    """The auditor's default sparse weight cap, ceil(log2 log2 N)."""
    return max(1, (max(n.bit_length(), 2) - 1).bit_length())


def default_smoothness(n: int) -> int:
    """The auditor's default smoothness bound for class a."""
    return min(1 << 16, 1 << max(2, n.bit_length() // 8))


def _roots(n):
    return math.isqrt(n), nt.iroot(n, 4)


def _small(x, n):
    return abs(x) ** EPS[1] <= n ** EPS[0]


def class_holds(cls: str, n: int, p: int, q: int, witness: dict,
                k: int, bound: int) -> bool:
    """Does class `cls` hold for n = p q, using the audit's witness?"""
    s0, f0 = _roots(n)
    if cls == "a":
        sides = {"p-1": p - 1, "p+1": p + 1, "q-1": q - 1, "q+1": q + 1}
        named = witness.get("side")
        cands = [sides[named]] if named in sides else list(sides.values())
        return any(nt.is_smooth(m, bound) for m in cands)
    if cls == "b":
        return p >= s0 - f0 or q <= s0 + f0 + 1
    if cls == "g":
        return nt.naf_weight(q - p) <= k
    if cls in ("c", "d"):
        f = {"p": p, "q": q}[witness["side"]]
        a, b = int(witness["a"]), int(witness["b"])
        if f != s0 + a * f0 + b:
            return False
        if cls == "c":
            return _small(a, n) and _small(b, n)
        return nt.naf_weight(a) <= k and nt.naf_weight(b) <= k
    if cls == "f":
        r, s = int(witness["r"]), int(witness["s"])
        return (p + q == 2 * s0 + r * f0 + s
                and nt.naf_weight(r) <= k and nt.naf_weight(s) <= k)
    return False


def generated_class_holds(cls: str, n: int, p: int, q: int) -> bool:
    """Class membership of a generated record, which carries no witness."""
    s0, f0 = _roots(n)
    k = GENERATOR_K
    if cls in ("a", "b", "g"):
        return class_holds(cls, n, p, q, {}, k, GENERATOR_SMOOTHNESS)
    if cls == "f":
        delta = p + q - 2 * s0
        r = nt.nearest_quotient(delta, f0)
        return (r != 0 and nt.naf_weight(r) <= k
                and nt.naf_weight(delta - r * f0) <= k)
    for f in (p, q):
        a = nt.nearest_quotient(f - s0, f0)
        b = f - s0 - a * f0
        if a == 0:
            continue
        if cls == "c" and _small(a, n) and _small(b, n):
            return True
        if cls == "d" and nt.naf_weight(a) <= k and nt.naf_weight(b) <= k:
            return True
    return False


class Checker:
    """Checks results and keeps the time spent re-verifying certificates."""

    def __init__(self, model):
        self.model = model
        self.verify_s: list[float] = []

    def check(self, request: dict, result: dict) -> bool:
        """Raises CheckFailure on a wrong output; returns whether it solved."""
        for call in result["calls"]:
            if call["exc"] is not None:
                raise CheckFailure("raised " + call["exc"].strip().splitlines()[-1])
        if "record" in request:
            return self._audit_blind(request, result["calls"][0])
        if "gen_seed" in request:
            return self._corpus(request, result)
        return self._factor(request, result["calls"][0])

    # -- factor ---------------------------------------------------------------

    def _factor(self, req, call):
        n, p, q = int(req["n"]), int(req["p"]), int(req["q"])
        payload = _last_json(call)
        status = payload.get("status")
        if status not in EXIT_FOR_STATUS:
            raise CheckFailure(f"unexpected status {status!r}")
        if call["rc"] != EXIT_FOR_STATUS[status]:
            raise CheckFailure(f"exit code {call['rc']} for status {status}")
        if int(payload["n"]) != n:
            raise CheckFailure("reports a different N")
        if status == "Exhausted":
            if req["solvable"]:
                raise CheckFailure("not solved within its stated budget")
            return False
        got = (int(payload["p"]), int(payload["q"]))
        if got != (p, q) or got[0] * got[1] != n:
            raise CheckFailure(f"wrong factors {got}")
        self._certificate(n, p, payload)
        return True

    def _certificate(self, n, p, payload):
        cert = self.model.certificate_from_dict(
            {"method": payload["method"], "witness": payload["witness"]})
        t0 = time.perf_counter()
        ok = self.model.verify_certificate(n, cert)
        self.verify_s.append(time.perf_counter() - t0)
        if not ok:
            raise CheckFailure(f"{payload['method']} certificate does not verify")
        w = payload["witness"]
        if "x" not in w:
            return
        x, y = int(w["x"]), int(w["y"])
        if payload["method"] == "ClassicFermat":
            good = x * x - y * y == n and x - y == p
        elif payload["method"] in FOUR_N_METHODS:
            good = x * x - y * y == 4 * n and (x - y) // 2 == p
        else:
            good = True
        if not good:
            raise CheckFailure("Fermat witness fails x^2 - y^2 = 4N")

    # -- audits ---------------------------------------------------------------

    def _audit_payload(self, call, n, p, q):
        if call["rc"] != 0:
            raise CheckFailure(f"audit exit code {call['rc']}")
        payload = _last_json(call)
        if int(payload["n"]) != n:
            raise CheckFailure("audit reports a different N")
        classes = payload["classes"]
        k, bound = default_k(n), default_smoothness(n)
        for cls in classes:
            try:
                holds = class_holds(cls, n, p, q,
                                    payload["witnesses"].get(cls, {}), k, bound)
            except (KeyError, TypeError, ValueError):
                holds = False
            if not holds:
                raise CheckFailure(f"reports class {cls} that does not hold")
        return classes

    def _audit_blind(self, req, call):
        n, p, q = int(req["n"]), int(req["p"]), int(req["q"])
        classes = self._audit_payload(call, n, p, q)
        if req["kind"] == "rsa":
            return bool(classes)
        if req["kind"] not in classes:
            raise CheckFailure(f"class {req['kind']} not detected within the blind caps")
        return True

    def _corpus(self, req, result):
        text = result.get("file_text") or ""
        body = text.strip().partition("#")
        fields = [f for f in body[0].split(",") if f]
        if len(fields) != 3 or body[2].strip() != f"class={req['kind']}":
            raise CheckFailure(f"malformed record {text.strip()!r}")
        n, p, q = (int(f) for f in fields)
        if p * q != n or not p < q < 2 * p:
            raise CheckFailure("record is not a balanced factorization")
        if abs(n.bit_length() - req["bits"]) > 3:
            raise CheckFailure(f"record has {n.bit_length()} bits")
        if not (nt.is_prime(p) and nt.is_prime(q)):
            raise CheckFailure("record factor is not prime")
        if not generated_class_holds(req["kind"], n, p, q):
            raise CheckFailure(f"record is not in class {req['kind']}")
        classes = self._audit_payload(result["calls"][1], n, p, q)
        if req["kind"] not in classes:
            raise CheckFailure(f"audit misses the record's class {req['kind']}")
        return True


def _last_json(call) -> dict:
    lines = call["stdout"].strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise CheckFailure("no JSON result on stdout") from None
