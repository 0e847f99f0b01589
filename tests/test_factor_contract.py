"""What `factor` answers, method by method, before and around any search.

Every method runs the same preamble: N < 3 is TrivialInput, an even N is
the divisor-2 split at 0 ops, and a probable prime is ProbablePrime.  Past
it, each method's ops stay within --budget.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st
import pytest

from conftest import prime_at_or_above
from sparsefactor import cli
from sparsefactor.arith import is_probable_prime
from sparsefactor.model import result_from_dict, verify_certificate

METHODS = tuple(cli.ENGINES)


def factor(n, method, *flags):
    """(exit code, payload or None, stderr) of one `factor --json` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["factor", str(n), "--method", method, "--json",
                         *flags])
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    if payload is not None:
        del payload["elapsed_s"], payload["n"]
    return code, payload, err.getvalue()


def test_methods_are_the_table():
    assert set(METHODS) == {"auto", "fermat", "xfermat", "bsgs", "sparsediff",
                            "sparseexp", "trial", "pm1"}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [1, 2])
def test_below_three_is_trivial(n, method):
    assert factor(n, method) == (
        1, {"ops": 0, "status": "TrivialInput"}, "")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [4, 100])
def test_even_n_is_the_divisor_two_split(n, method):
    assert factor(n, method) == (
        0, {"method": "TrialDivision", "ops": 0, "p": "2", "q": str(n // 2),
            "status": "Factored", "witness": {"divisor": "2"}}, "")


@pytest.mark.parametrize("method", METHODS)
def test_prime_is_probable_prime(method):
    assert factor(10007, method) == (
        2, {"ops": 0, "status": "ProbablePrime"}, "")


# Pinned as they are: BSGS needs a squarefree N (T^(N+1) = T^(p+q)), and
# q - p = 0 gives the sparse-difference scan nothing to find at multiplier 1.
_SQUARE_MISSES = {("bsgs", 9), ("bsgs", 25), ("bsgs", 49),
                  ("sparsediff", 9), ("sparsediff", 49)}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [9, 25, 49])
def test_perfect_squares_keep_their_answers(n, method):
    code, payload, err = factor(n, method)
    assert err == ""
    if (method, n) in _SQUARE_MISSES:
        assert code == 1 and payload["status"] == "Exhausted"
    else:
        root = {9: 3, 25: 5, 49: 7}[n]
        assert code == 0 and (payload["p"], payload["q"]) == (str(root),) * 2
        assert verify_certificate(n, result_from_dict(payload).certificate)


def _squares():
    return st.integers(2, (1 << 12) - 1).map(lambda r: r * r)


_N = st.one_of(
    st.integers(0, (1 << 23) - 1).map(lambda h: 2 * h + 1),  # odd
    st.integers(1, (1 << 23) - 1).map(lambda h: 2 * h),      # even
    st.integers(2, (1 << 24) - 3).map(prime_at_or_above),    # prime
    _squares(),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(n=_N, budget=st.integers(1, 5_000))
@example(n=31, budget=7)     # p-1 once restarted past its budget
@example(n=703, budget=11)
@example(n=100, budget=1)    # fermat, bsgs and pm1 once refused an even N
def test_every_method_keeps_the_contract(n, budget):
    statuses = set()
    for method in METHODS:
        code, payload, err = factor(n, method, "--budget", str(budget))
        assert code in (0, 1, 2) and err == "", (method, code, err)
        if method != "auto":
            assert payload["ops"] <= budget, method
        if payload["status"] == "Factored":
            p, q = int(payload["p"]), int(payload["q"])
            assert p * q == n
            assert verify_certificate(n, result_from_dict(payload).certificate)
        statuses.add(payload["status"])
    if n % 2 == 0 or is_probable_prime(n):
        assert len(statuses) == 1, statuses
