"""Request plans for the four workloads, built from the seed alone.

Every input is made with the helpers in ``numtheory``; nothing here imports
the package under test.  A plan is a JSON-ready dict: the ordered requests
(each with the CLI argument lists to run and what the checker needs), and
``prefix``, the number of leading requests every run completes, over which
the deterministic counters are summed.

Difficulty is stratified: the j-th instance of a kind takes its size from
a low-discrepancy sequence with a seeded offset, so every seed and every
prefix of a run covers the same spread of difficulty, and only the numbers
themselves change with the seed.  This keeps medians comparable across
seeds.
"""

from __future__ import annotations

import math
import random

import numtheory as nt

WORKLOADS = ("scan", "audit_blind", "corpus", "factor_auto")
FILE = "{file}"  # replaced by the worker with a path in its work directory
_PHI = (math.sqrt(5) - 1) / 2

# The 49-bit reference fixture: a = 1724 = 2^11 - 2^8 - 2^6 - 2^2, t = 339.
REFERENCE = {"n": 448316072600119, "p": 15402707, "q": 29106317,
             "flags": ["--k", "5", "--vmax", "12", "--tmax", "1642"]}


def _strata(rng: random.Random):
    """u_j in [0, 1): evenly spread for every prefix, offset by the seed."""
    offset = rng.random()
    j = 0
    while True:
        yield (offset + j * _PHI) % 1.0
        j += 1


def _log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _factor_request(kind, n, p, q, argv_tail, solvable=True):
    return {"kind": kind, "n": str(n), "p": str(p), "q": str(q),
            "solvable": solvable,
            "calls": [["factor", str(n), "--json", *argv_tail]]}


# ---------------------------------------------------------------------------
# scan: single engines, uncapped
# ---------------------------------------------------------------------------

def _xfermat_instance(rng, bits, a, t_max):
    """Balanced p, q whose sum sits within t_max of the anchor X_a."""
    for _ in range(10_000):
        s = rng.randrange(1 << (bits // 2 - 1), 1 << (bits // 2)) | (1 << (bits // 2 - 1))
        f = nt.iroot(s * s, 4)
        near = nt.next_prime(s + a * f + rng.randrange(-t_max, t_max + 1))
        far = nt.next_prime(s * s // near)
        p, q = sorted((near, far))
        if not p < q < 2 * p:
            continue
        n = p * q
        base = math.isqrt(n) + a * nt.iroot(n, 4)
        if base <= 0:
            continue
        t = p + q - (base + n // base)
        if abs(t) <= t_max:
            return n, p, q
    raise RuntimeError("no xfermat instance")


def _classic_instance(rng, bits, steps):
    """Balanced p, q that the classic scan reaches after about `steps` steps."""
    while True:
        s = rng.randrange(1 << (bits // 2 - 1), 1 << (bits // 2)) | (1 << (bits // 2 - 1))
        # x - sqrt(N) = y^2 / (x + sqrt(N)) for x = (p+q)/2, y = (q-p)/2
        y = math.isqrt(2 * s * steps)
        p, q = nt.next_prime(s - y), nt.next_prime(s + y)
        if p < q < 2 * p and _classic_steps(p * q, p, q) <= 2 * steps:
            return p * q, p, q


def _sparse_diff_instance(rng, bits, a):
    """Balanced p, q with q - p = a < p."""
    p = nt.prime_pair(rng, bits // 2, a)
    return p * (p + a), p, p + a


# Half the requests are sparsediff, whose latencies form the narrowest group
# in the middle of the mix: p50 lies inside it, with the fast classic group
# below and the broad xfermat group spread on either side.
_SCAN_BLOCK = ("fermat", "sparsediff", "xfermat", "sparsediff")


def _scan_plan(rng, small):
    if small:
        x_bits, x_k, x_v, x_t, x_idx = 40, 3, 10, 40, (20, 60)
        c_bits, c_steps = 48, (500, 2000)
        d_bits, d_k, d_v, d_idx = 96, 2, 46, (100, 1000)
        count = 12
    else:
        x_bits, x_k, x_v, x_t, x_idx = 56, 4, 12, 300, (150, 1000)
        c_bits, c_steps = 64, (10_000, 100_000)
        d_bits, d_k, d_v, d_idx = 128, 3, 62, (50_000, 80_000)
        count = 700
    x_stream = nt.sparse_stream(x_k, x_v, signed=True)
    # canonical order of the positive stream; q - p is even
    d_stream = sorted((v for v in _positive_sparse_values(d_k, d_v) if v % 2 == 0),
                      key=lambda v: (nt.naf_weight(v), v))
    x_u, c_u, d_u = _strata(rng), _strata(rng), _strata(rng)
    requests = []
    if not small:
        ref = REFERENCE
        requests.append(_factor_request(
            "xfermat", ref["n"], ref["p"], ref["q"],
            ["--method", "xfermat", "--workers", "1", *ref["flags"]]))
    while len(requests) < count:
        kind = _SCAN_BLOCK[len(requests) % len(_SCAN_BLOCK)]
        if kind == "xfermat":
            while True:
                idx = int(_log_between(next(x_u), *x_idx))
                a = x_stream[idx]
                # |a| N^(1/4) < sqrt(N) / 4 keeps both sign cases balanced
                if 4 * abs(a) * nt.iroot(1 << (x_bits - 2), 4) < 1 << (x_bits // 2 - 1):
                    break
            n, p, q = _xfermat_instance(rng, x_bits, a, x_t)
            tail = ["--method", "xfermat", "--workers", "1", "--k", str(x_k),
                    "--vmax", str(x_v), "--tmax", str(x_t)]
        elif kind == "fermat":
            n, p, q = _classic_instance(
                rng, c_bits, int(_log_between(next(c_u), *c_steps)))
            tail = ["--method", "fermat", "--workers", "1",
                    "--tmax", str(2 * c_steps[1])]
        else:
            a = d_stream[int(_log_between(next(d_u), *d_idx))]
            n, p, q = _sparse_diff_instance(rng, d_bits, a)
            tail = ["--method", "sparsediff", "--workers", "1", "--k", str(d_k),
                    "--vmax", str(d_v)]
        requests.append(_factor_request(kind, n, p, q, tail))
    return {"requests": requests, "prefix": 4 if small else 12}


def _positive_sparse_values(k, v_max):
    """Positive values of NAF weight <= k with exponents <= v_max."""
    out = []

    def extend(value, below, left):
        # below: highest exponent still free; left: digits still allowed
        out.append(value)
        if left == 0:
            return
        for e in range(below, -1, -1):
            extend(value + (1 << e), e - 2, left - 1)
            extend(value - (1 << e), e - 2, left - 1)

    for top in range(v_max + 1):
        extend(1 << top, top - 2, k - 1)
    return out


# ---------------------------------------------------------------------------
# audit_blind: blind audits, mostly RSA-like
# ---------------------------------------------------------------------------

_AUDIT_BLOCK = ("rsa", "rsa", "rsa", "b", "rsa", "rsa", "rsa", "g")


def _balanced_pair(rng, bits):
    while True:
        p, q = sorted((nt.random_prime(rng, bits // 2),
                       nt.random_prime(rng, bits // 2)))
        if p < q < 2 * p:
            return p * q, p, q


def _audit_request(kind, n, p, q):
    return {"kind": kind, "n": str(n), "p": str(p), "q": str(q),
            "record": str(n), "calls": [["audit", "--in", FILE, "--json"]]}


def _audit_blind_plan(rng, small):
    bits = 128 if small else 256
    count = 16 if small else 200
    half = bits // 2
    # differences beyond the classic scan's 4096 steps, inside sparse_diff's
    # weight-3 reach: q - p >= 2^(bits/4 + 16) needs > 2^29 classic steps
    g_top = (bits // 4 + 16, half - 2)
    requests = []
    while len(requests) < count:
        kind = _AUDIT_BLOCK[len(requests) % len(_AUDIT_BLOCK)]
        if kind == "rsa":
            n, p, q = _balanced_pair(rng, bits)
        elif kind == "b":
            p = nt.random_prime(rng, half)
            q = nt.next_prime(p + 2)
            n = p * q
        else:
            top = rng.randint(*g_top)
            d = 1 << top
            if rng.random() < 0.5:
                d += rng.choice((1, -1)) << rng.randint(1, top - 2)
            p = nt.prime_pair(rng, half, d)
            n, q = p * (p + d), p + d
        requests.append(_audit_request(kind, n, p, q))
    return {"requests": requests, "prefix": 4 if small else 8}


# ---------------------------------------------------------------------------
# corpus: generate one record, then audit it with its factors
# ---------------------------------------------------------------------------

def _corpus_plan(rng, small, seed):
    # 160 bits is the smallest size at which open defect D2 stays out
    bits = 160 if small else 512
    count = 12 if small else 1500
    requests = []
    for i in range(count):
        cls = "abcdfg"[i % 6]
        gen_seed = seed * 100_003 + i
        requests.append({
            "kind": cls, "bits": bits, "gen_seed": gen_seed,
            "calls": [["generate", "--class", cls, "--bits", str(bits),
                       "--count", "1", "--seed", str(gen_seed), "--out", FILE],
                      ["audit", "--in", FILE, "--json"]]})
    return {"requests": requests, "prefix": 6 if small else 24}


# ---------------------------------------------------------------------------
# factor_auto: the auto cascade on weak and non-weak inputs
# ---------------------------------------------------------------------------

# 5/8 fast (b, d), 1/8 BSGS, 2/8 exhausted: p50 lies inside the fast group,
# which runs no thread fan-out, and the tail percentile among the exhausted.
_AUTO_BLOCK = ("b", "d", "nonweak", "d", "bsgs", "b", "d", "nonweak")


def _classic_steps(n, p, q):
    return (p + q) // 2 - nt.isqrt_ceil(n) + 1


def _auto_d_instance(rng, bits):
    """Class d: a factor at sqrt(N) + a N^(1/4) + b with a, b sparse.

    |a| <= 80 keeps the pair within reach of the cascade's classic stage.
    """
    while True:
        e = rng.randint(3, 6)
        a = (1 << e) + (rng.choice((0, 1, -1)) << rng.randint(0, e - 2))
        a *= rng.choice((1, -1))
        s = rng.randrange(1 << (bits // 2 - 1), 1 << (bits // 2)) | (1 << (bits // 2 - 1))
        f = nt.iroot(s * s, 4)
        near = nt.next_prime(s + a * f + rng.randrange(-64, 64))
        far = nt.next_prime(s * s // near)
        p, q = sorted((near, far))
        n = p * q
        if not p < q < 2 * p or _classic_steps(n, p, q) > min(bits * bits, 1 << 14):
            continue
        s0, f0 = math.isqrt(n), nt.iroot(n, 4)
        if any(_sparse_split(x - s0, f0) for x in (p, q)):
            return n, p, q


def _sparse_split(delta, unit, k=3):
    a = nt.nearest_quotient(delta, unit)
    b = delta - a * unit
    return a != 0 and nt.naf_weight(a) <= k and nt.naf_weight(b) <= k


def _auto_plan(rng, small):
    budget = 2_000 if small else 10_000
    count = 16 if small else 400
    bits_u = _strata(rng)
    requests = []
    while len(requests) < count:
        kind = _AUTO_BLOCK[len(requests) % len(_AUTO_BLOCK)]
        u = next(bits_u)
        if kind == "b":
            bits = 64 + 2 * int(u * 33)
            p = nt.random_prime(rng, bits // 2)
            q = nt.next_prime(p + 2)
            n = p * q
        elif kind == "d":
            n, p, q = _auto_d_instance(rng, 64 + 2 * int(u * 33))
        elif kind == "bsgs":
            bits = 48 + 2 * int(u * 4)
            while True:
                n, p, q = _balanced_pair(rng, bits)
                # past the classic and xfermat stages' windows, so BSGS runs
                t_max = min(bits * bits, 4096)
                if p + q - 2 * math.isqrt(n) > 4 * t_max + 256 and n < 1 << 56:
                    break
        else:
            n, p, q = _balanced_pair(rng, 96 + 2 * int(u * 17))
        requests.append(_factor_request(
            kind, n, p, q, ["--budget", str(budget), "--workers", "2"],
            solvable=kind != "nonweak"))
    return {"requests": requests, "prefix": 8 if small else 16}


def build(workload: str, seed: int, small: bool = False) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        plan = _scan_plan(rng, small)
    elif workload == "audit_blind":
        plan = _audit_blind_plan(rng, small)
    elif workload == "corpus":
        plan = _corpus_plan(rng, small, seed)
    elif workload == "factor_auto":
        plan = _auto_plan(rng, small)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["workload"] = workload
    return plan
