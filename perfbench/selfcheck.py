"""Self-check of the benchmark at each workload's smallest size.

    python3 -m pytest -q perfbench/selfcheck.py

Run from the root of a checkout.  It asserts that the checker accepts every
request the current code answers, that corrupted results are counted as
failures, and that one seed always gives the same inputs and the same
deterministic counters.  It takes about 90 seconds on two cores.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import numtheory as nt  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(HERE)


def _measure(workload, trace=False, corrupt=None, seed=1):
    return run.measure(ROOT, workload, seed, 1, trace, small=True,
                       corrupt=corrupt)


def test_helpers_agree_with_definitions():
    for v in range(-3000, 3000):
        digits = nt.naf_digits(v)
        assert sum(s << e for s, e in digits) == v
        assert all(a[1] - b[1] >= 2 for a, b in zip(digits, digits[1:]))
        assert nt.naf_weight(v) == len(digits)
    assert [n for n in range(200) if nt.is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert nt.sparse_stream(2, 3, True)[:8] == [0, 1, -1, 2, -2, 4, -4, 8]
    stream = nt.sparse_stream(3, 9, False)
    level = sorted(inputs._positive_sparse_values(3, 9), key=lambda v: (nt.naf_weight(v), v))
    assert level == stream
    assert run.latency_tail(list(range(100))) == (89, 90.0, 10)
    assert run.latency_tail([3, 1, 2]) == (3, 100.0, 0)
    assert run.at_reference_speed(0.5, 2 * run.REFERENCE_PROBE_S) == 0.25


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checker_accepts_current_code(workload):
    report = _measure(workload)
    assert report["attempted"] >= inputs.build(workload, 1, True)["prefix"]
    assert report["failed"] == 0, report["failures"]
    assert all(v > 0 for v in report["metrics"].values()), report["metrics"]
    assert report["raw"]["host_speed"] > 0


def _edit_json(call, edit):
    lines = call["stdout"].strip().splitlines()
    payload = json.loads(lines[-1])
    edit(payload)
    call["stdout"] = json.dumps(payload) + "\n"


def _corrupt_factor_results(plan, results):
    def wrong_factor(p):
        p["p"] = str(int(p["p"]) + 2)

    def tampered_witness(p):
        p["witness"]["x"] = str(int(p["witness"]["x"]) + 2)

    fermat_family = next(i for i, r in enumerate(plan["requests"])
                         if i > 0 and r["kind"] in ("fermat", "xfermat"))
    _edit_json(results[0]["calls"][0], wrong_factor)
    _edit_json(results[fermat_family]["calls"][0], tampered_witness)


def _corrupt_audit_results(plan, results):
    rsa = next(i for i, r in enumerate(plan["requests"]) if r["kind"] == "rsa")
    _edit_json(results[rsa]["calls"][0], lambda p: p["classes"].append("b"))


@pytest.mark.parametrize("workload, corrupt, expected", [
    ("scan", _corrupt_factor_results, 2),
    ("audit_blind", _corrupt_audit_results, 1),
])
def test_corrupted_results_count_as_failures(workload, corrupt, expected):
    report = _measure(workload, corrupt=corrupt)
    assert report["failed"] == expected, report["failures"]
    assert report["fail_frac"] == expected / report["attempted"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_and_counters(workload):
    first, second = _measure(workload, trace=True), _measure(workload, trace=True)
    assert first["inputs_sha256"] == second["inputs_sha256"]
    counters = [{k: v for k, v in r["metrics"].items() if k.startswith("count.")}
                for r in (first, second)]
    assert counters[0] == counters[1]
    assert any(counters[0].values())
    assert _measure(workload, seed=2)["inputs_sha256"] != first["inputs_sha256"]
