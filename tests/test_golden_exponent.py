"""Golden payloads of the two exponent engines, pinned by hash.

Each test runs a seeded set of `sparse_exponent_factor` or `pollard_pm1`
calls and hashes their `result_to_dict` payloads.  The hashes pin the
certificates, the op counts and the search order byte for byte, so a
faster loop has to reproduce every payload exactly.  The coverage
assertions keep the hashed set honest: it has to reach the outcomes that a
loop rewrite could get wrong.  Each test runs twice: on the modular-power
kernel `arith` loaded, and on builtin `pow`, so both paths meet one hash.
"""

import hashlib
import json
import random

import pytest

from conftest import random_semiprime
from sparsefactor import arith
from sparsefactor.arith import pollard_pm1
from sparsefactor.model import SearchBudget, result_to_dict
from sparsefactor.sparse_exp import sparse_exponent_factor

GRID_SHA256 = "49d16fbf88f76ee6d18b86a52266dd9ad4b3e4dae42085f40bca1fe54d265a4d"
PM1_SHA256 = "a54771bd0bbf56f9b8a0e341e3256af33cf3fc08dc2a2d60b7501781b07770b1"


@pytest.fixture(params=["loaded", "builtin"])
def kernel(request, monkeypatch):
    if request.param == "builtin":
        monkeypatch.setattr(arith, "_powmod", pow)


def _digest(payloads: list[dict]) -> str:
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _grid(n, k, v, trials, seed, cap):
    budget = SearchBudget(k=k, v_max=v, t_max=4, op_cap=cap)
    return result_to_dict(sparse_exponent_factor(n, budget, trials, seed))


def _grid_payloads() -> list[dict]:
    rng = random.Random(2026)
    cases = [(2047, 2, 5, 6, 3, 5000), (253, 2, 6, 8, 0, 5000),
             (4294967297, 2, 8, 8, 0, 5000), (8633, 2, 6, 8, 0, 2),
             (8051, 2, 6, 6, 42, 5000), (2, 2, 6, 8, 0, 5000),
             (8050, 2, 6, 8, 0, 5000), (10007, 2, 6, 8, 0, 5000),
             (2501, 2, 5, 4, 5, 400), (460631, 2, 2, 4, 0, 400),
             (660571, 2, 2, 2, 5, 400)]
    for _ in range(110):
        n, _, _ = random_semiprime(rng, rng.choice((12, 16, 20, 24, 32, 40)))
        cases.append((n, rng.randint(1, 3), rng.randint(2, 10),
                      rng.randint(1, 4), rng.randint(0, 5),
                      rng.choice((1, 40, 400, 2500))))
    payloads = []
    for n, k, v, trials, seed, cap in cases:
        full = _grid(n, k, v, trials, seed, cap)
        payloads.append(full)
        if full["status"] == "Factored" and full["ops"] > 0:
            # a cap at the hit op still splits; one below it must not
            payloads.append(_grid(n, k, v, trials, seed, full["ops"]))
            if full["ops"] > 1:
                payloads.append(_grid(n, k, v, trials, seed, full["ops"] - 1))
    return payloads


def _pm1_payloads() -> list[dict]:
    # (n, bound, base): splits at stages 30, 63, 64, 65, 66, 128 and 129 of
    # bound 1000, a split after six degenerate bases, eight degenerate
    # bases, a degenerate base 1, and bounds with zero or one stage
    cases = [(2069506337, 1000, 2), (12767413567, 1000, 2),
             (160858500643, 1000, 2), (32995596047, 1000, 2),
             (238488288721, 1000, 2), (630114092071, 1000, 2),
             (49109303393, 1000, 2), (1529328643, 1000, 2),
             (2047, 30, 2), (10403, 1000, 1), (10403, 1, 2), (10403, 2, 2),
             (91, 100, 2)]
    rng = random.Random(2027)
    for _ in range(300):
        n, _, _ = random_semiprime(rng, rng.choice((16, 24, 32, 40, 48)))
        cases.append((n, rng.choice((10, 100, 1000, 10000)),
                      rng.choice((2, 3, 5))))
    return [result_to_dict(pollard_pm1(n, bound, base))
            for n, bound, base in cases]


def test_grid_payloads_golden(kernel):
    payloads = _grid_payloads()
    kinds = [p["witness"].get("kind") for p in payloads if "witness" in p]
    assert kinds.count("grid") >= 100 and kinds.count("unity_root") >= 2
    assert any(p["witness"].get("gcd_side") == 1
               for p in payloads if "witness" in p)
    assert sum(p["status"] == "Exhausted" for p in payloads) >= 100
    assert _digest(payloads) == GRID_SHA256


def test_pm1_payloads_golden(kernel):
    payloads = _pm1_payloads()
    assert [p["ops"] for p in payloads[:7]] == [30, 63, 64, 65, 66, 128, 129]
    assert payloads[7]["witness"]["base"] == "13"
    assert (payloads[8]["status"], payloads[8]["ops"]) == ("Exhausted", 40)
    assert payloads[9]["witness"]["base"] == "3"  # after base 1 degenerates
    assert sum(p["status"] == "Factored" for p in payloads) >= 150
    assert _digest(payloads) == PM1_SHA256
