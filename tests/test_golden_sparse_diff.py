"""Golden payloads of the sparse-difference engine, pinned by hash.

The test runs a seeded set of `sparse_difference_factor` calls and hashes
their `result_to_dict` payloads.  The hash pins the certificates, the op
counts, the stream indices and the cap clipping byte for byte, so a faster
scan has to reproduce every payload exactly.  v_max is taken on both sides
of 62, where the scan's values stop fitting in int64, and the coverage
assertions keep the hashed set honest: it has to reach hits on both sides
of 62 and on both discriminants a^2 - 4bN and a^2 + 4bN, and exhausted runs.
"""

import hashlib
import json
import random

from conftest import prime_at_or_above, random_prime, random_semiprime
from sparsefactor.arith import is_probable_prime
from sparsefactor.model import SearchBudget, result_to_dict
from sparsefactor.sparse_diff import sparse_difference_factor

SPARSE_DIFF_SHA256 = "d0168c5d0d9b2f26117d4d4803856fa48c34144951af357648da6da73c3a17d2"

_ORDERS = ((1,), (1, 2), (3, 1), (1, 2, 4, 8))


def _digest(payloads: list[dict]) -> str:
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run(n, k, v, multipliers, cap):
    budget = SearchBudget(k=k, v_max=v, t_max=4, multipliers=multipliers,
                          op_cap=cap)
    return result_to_dict(sparse_difference_factor(n, budget))


def _planted(rng: random.Random, bits: int, k: int, v: int, b: int) -> int:
    """N = p * q with b*q - p a random sparse value of weight <= k below 2^v."""
    while True:
        q = random_prime(rng, bits // 2)
        if b % 2:
            exps = rng.sample(range(1, v + 1, 2), rng.randint(1, k))
        else:
            # b*q is even, so the gap must be odd for p to be prime
            exps = rng.sample(range(2, v + 1, 2), rng.randint(1, k - 1)) + [0]
        exps.sort(reverse=True)
        gap = sum(rng.choice((1, -1)) << e for e in exps[1:]) + (1 << exps[0])
        p = b * q - gap
        if p > 2 and is_probable_prime(p):
            return p * q


def _planted_sum(rng: random.Random, k: int, v: int) -> int:
    """N = p * q with p + q a random sparse value of weight <= k below 2^v."""
    while True:
        top = rng.randint(v - 3, v)
        rest = rng.sample(range(v // 2, top - 1), k - 1)
        total = (1 << top) + sum(rng.choice((1, -1)) << e for e in rest)
        p = prime_at_or_above(total // 2 - rng.getrandbits(v // 3))
        if is_probable_prime(total - p):
            return p * (total - p)


def _payloads() -> list[dict]:
    rng = random.Random(2028)
    cases = []
    for v in (40, 62, 63, 90):
        for _ in range(3):
            cases.append((_planted_sum(rng, 2, v), 2, v, rng.choice(_ORDERS),
                          10 ** 7))
        for _ in range(6):
            bits = rng.choice((80, 128, 160)) if v > 40 else rng.choice((48, 64))
            order = rng.choice(_ORDERS)
            n = _planted(rng, bits, 2, v, rng.choice(order))
            cases.append((n, 2, v, order, 10 ** 7))
        for _ in range(6):
            n, _, _ = random_semiprime(rng, rng.choice((40, 64, 128)))
            cases.append((n, rng.randint(1, 3), v, rng.choice(_ORDERS),
                          rng.choice((1, 2, 3, 1000, 50_001))))
    payloads = []
    for n, k, v, order, cap in cases:
        full = _run(n, k, v, order, cap)
        payloads.append(full)
        if full["status"] == "Factored" and full["ops"] > 0:
            # a cap at the hit op still splits; one below it must not
            payloads.append(_run(n, k, v, order, full["ops"]))
            payloads.append(_run(n, k, v, order, full["ops"] - 1))
    return payloads


def test_sparse_diff_payloads_golden():
    payloads = _payloads()
    hits = [p for p in payloads if p["status"] == "Factored"]
    assert len(hits) >= 30
    assert {p["witness"]["sign_bn"] for p in hits} == {1, -1}
    assert any(int(p["witness"]["a"]) >= 1 << 63 for p in hits)
    assert any(int(p["witness"]["a"]) < 1 << 40 for p in hits)
    assert sum(p["status"] == "Exhausted" for p in payloads) >= 24
    assert _digest(payloads) == SPARSE_DIFF_SHA256
