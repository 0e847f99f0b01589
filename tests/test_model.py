import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_semiprime
from sparsefactor import arith, fermat, sparse_diff, sparse_exp
from sparsefactor.model import (
    Certificate,
    FactorResult,
    LowOrderBaseError,
    SearchBudget,
    WeakClassReport,
    report_to_dict,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
    verify_certificate,
)


def test_verify_scaled_fermat_witness():
    cert = Certificate("ExtendedFermatOffset", {"x": 204, "y": 2})
    assert 204 ** 2 - 2 ** 2 == 4 * 10403
    assert verify_certificate(10403, cert)


def test_verify_classic_witness():
    assert verify_certificate(15, Certificate("ClassicFermat", {"x": 4, "y": 1}))
    assert not verify_certificate(15, Certificate("ClassicFermat", {"x": 5, "y": 1}))


def test_verify_rejects_trivial_split():
    # x - y = 1 factors 15 as 1 * 15: not a real certificate
    assert not verify_certificate(15, Certificate("ClassicFermat", {"x": 8, "y": 7}))


def test_verify_malformed_never_raises():
    bad = [
        Certificate("ClassicFermat", {}),
        Certificate("ClassicFermat", {"x": "junk", "y": []}),
        Certificate("SparseDifference", {"a": 1}),
        Certificate("SparseExponent", {"kind": "grid"}),
        Certificate("SparseExponent", {"kind": "nonsense", "base": 2}),
        Certificate("TrialDivision", {"divisor": "x"}),
        Certificate("BsgsFermat", {"x": 1, "y": None}),
    ]
    for cert in bad:
        assert verify_certificate(10403, cert) is False
    with pytest.raises(ValueError):
        verify_certificate(1, bad[0])


def test_verify_rejects_digits_that_are_not_a_sparse_form():
    # the reference fixture's certificate and Germain 253's grid trace,
    # then the same digit values, 1724 and 5, written as no sparse form:
    # exponents ascending, one repeated, a sign of 2, a digit of 3 fields
    def sparse(digits):
        return Certificate("ExtendedFermatSparse",
                           {"a": 1724, "digits": digits, "index": 2903,
                            "t": 339, "x": 44509024, "y": 13703610})

    def grid(last):
        steps = [[[1, 1]], [[-1, 1]], [[1, 2]], [[-1, 2]], [[1, 2], [-1, 0]],
                 [[-1, 2], [1, 0]], last]
        return Certificate("SparseExponent",
                           {"kind": "grid", "base": 2, "gcd_side": -1,
                            "trace": [[[], b] for b in steps]})

    assert verify_certificate(448316072600119,
                              sparse([[1, 11], [-1, 8], [-1, 6], [-1, 2]]))
    assert verify_certificate(253, grid([[1, 2], [1, 0]]))
    for digits in ([[-1, 2], [-1, 6], [-1, 8], [1, 11]],
                   [[1, 11], [-1, 8], [-1, 6], [-1, 1], [-1, 1]],
                   [[2, 10], [-1, 8], [-1, 6], [-1, 2]],
                   [[1, 11, 0], [-1, 8], [-1, 6], [-1, 2]]):
        assert verify_certificate(448316072600119, sparse(digits)) is False
    for last in ([[1, 0], [1, 2]], [[1, 1], [1, 1], [1, 0]], [[2, 1], [1, 0]],
                 [[1, 2, 0], [1, 0]]):
        assert verify_certificate(253, grid(last)) is False


def test_verify_offset_witness_checks_anchor():
    good = Certificate("ExtendedFermatOffset",
                       {"a": 0, "t": 0, "x": 204, "y": 2})
    assert verify_certificate(10403, good)
    wrong_anchor = Certificate("ExtendedFermatOffset",
                               {"a": 5, "t": 0, "x": 204, "y": 2})
    assert not verify_certificate(10403, wrong_anchor)


def test_certificate_method_validation():
    with pytest.raises(ValueError):
        Certificate("NoSuchMethod", {})


def test_factor_result_invariants():
    with pytest.raises(ValueError):
        FactorResult("Factored")
    with pytest.raises(ValueError):
        FactorResult("Factored", (1, 15))
    r = FactorResult("Factored", (3, 5),
                     Certificate("TrialDivision", {"divisor": 3}), ops=1)
    assert r.factored


def test_budget_defaults_base_two():
    b = SearchBudget.default_for(448316072600119)
    assert b.k == 6          # ceil(log2 of 49 bits)
    assert b.v_max == 13     # ceil(49 / 4)
    assert b.t_max == 49 * 49
    assert b.op_cap >= 1
    with pytest.raises(ValueError):
        SearchBudget(k=0, v_max=3, t_max=5)


def test_budget_rejects_negative_t_max():
    # a negative scan radius used to run as an empty scan: "Exhausted
    # after 0 ops" instead of a usage error
    with pytest.raises(ValueError):
        SearchBudget(k=2, v_max=3, t_max=-5)
    assert SearchBudget(k=2, v_max=3, t_max=0).t_max == 0


@pytest.mark.parametrize("multipliers", [(), (0,), (1, -1)])
def test_budget_rejects_bad_multipliers(multipliers):
    # b = 0 makes every discriminant a^2 a square; b < 0 failed inside isqrt
    with pytest.raises(ValueError, match="multiplier"):
        SearchBudget(k=2, v_max=3, t_max=0, multipliers=multipliers)


def _round_trip(result, n):
    blob = result_to_json(result)
    back = result_from_json(blob)
    assert back == result
    assert result_to_json(back) == blob
    if result.factored:
        assert verify_certificate(n, back.certificate)
    return json.loads(blob)


def test_json_round_trip_every_engine():
    cases = [
        (10403, arith.trial_division(10403, 200)),
        (253, arith.pollard_pm1(253, 11)),
        (2881, fermat.classic_fermat(2881, 10)),
        (10403, fermat.extended_fermat_offset(10403, 0, 8)),
        (10403, fermat.extended_fermat_sparse(
            10403, SearchBudget(k=1, v_max=3, t_max=8))),
        (10403, fermat.bsgs_fermat(10403, 2)),
        (15049, sparse_diff.sparse_difference_factor(
            15049, SearchBudget(k=2, v_max=8, t_max=4, multipliers=(1,)))),
        (253, sparse_exp.sparse_exponent_factor(
            253, SearchBudget(k=2, v_max=6, t_max=4))),
        (253, sparse_exp.germain_factor(253, 4)),
        (4294967297, sparse_exp.cyclotomic_form_factor(
            4294967297, ("fermat", 5), SearchBudget(k=2, v_max=6, t_max=4))),
        (2047, sparse_exp.cyclotomic_form_factor(
            2047, ("mersenne", 11), SearchBudget(k=2, v_max=5, t_max=4))),
    ]
    for n, result in cases:
        assert result.factored, result
        payload = _round_trip(result, n)
        assert payload["status"] == "Factored"
        assert int(payload["p"]) * int(payload["q"]) == n
        assert isinstance(payload["p"], str)  # decimal-string integers
        assert isinstance(payload["ops"], int)


def _budget(draw, **fixed):
    return SearchBudget(k=draw(st.integers(1, 3)), v_max=draw(st.integers(1, 10)),
                        t_max=draw(st.integers(0, 200)), **fixed)


def _bsgs(n, p, draw):
    try:
        return fermat.bsgs_fermat(n, draw(st.sampled_from([2, 3, p])))
    except LowOrderBaseError:
        return None


# engine -> run(n, p, draw) on a balanced odd semiprime n with factor p;
# a base drawn as p gives the lucky splits
_ENGINES = {
    "trial": lambda n, p, draw: arith.trial_division(
        n, draw(st.integers(2, 2000))),
    "pm1": lambda n, p, draw: arith.pollard_pm1(
        n, draw(st.integers(2, 1 << 12)), draw(st.sampled_from([2, 3, p]))),
    "classic": lambda n, p, draw: fermat.classic_fermat(
        n, draw(st.integers(1, 2000))),
    "offset": lambda n, p, draw: fermat.extended_fermat_offset(
        n, draw(st.integers(-2, 2)), draw(st.integers(0, 2000))),
    "xfermat": lambda n, p, draw: fermat.extended_fermat_sparse(
        n, _budget(draw, op_cap=20_000)),
    "bsgs": _bsgs,
    "sparsediff": lambda n, p, draw: sparse_diff.sparse_difference_factor(
        n, _budget(draw, op_cap=20_000)),
    "sparseexp": lambda n, p, draw: sparse_exp.sparse_exponent_factor(
        n, _budget(draw, op_cap=2000), trials=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 99))),
    "germain": lambda n, p, draw: sparse_exp.germain_factor(
        n, draw(st.integers(1, 50)), draw(st.sampled_from([2, 3, p]))),
}

# inputs of the shapes cyclotomic_form_factor takes
_FORMS = [(2047, ("mersenne", 11)), ((1 << 23) - 1, ("mersenne", 23)),
          ((1 << 29) - 1, ("mersenne", 29)), ((1 << 32) + 1, ("fermat", 5))]


@st.composite
def _engine_results(draw):
    engine = draw(st.sampled_from(sorted(_ENGINES) + ["cyclotomic"]))
    if engine == "cyclotomic":
        n, form = draw(st.sampled_from(_FORMS))
        result = sparse_exp.cyclotomic_form_factor(
            n, form, _budget(draw), draw(st.sampled_from([3, 5, 7])))
        return n, result
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    max_gap = draw(st.sampled_from([None, 64, 1 << 12]))
    n, p, _ = random_semiprime(rng, draw(st.integers(12, 40)), max_gap)
    result = _ENGINES[engine](n, p, draw)
    assume(result is not None)
    return n, result


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=_engine_results())
def test_json_round_trip_property(case):
    n, result = case
    assert result_from_json(result_to_json(result)) == result
    if result.factored:
        assert verify_certificate(n, result.certificate)


def test_json_round_trip_non_factored():
    for result in (arith.trial_division(10403, 50),
                   FactorResult("ProbablePrime", None, None, 0)):
        blob = result_to_json(result)
        assert result_from_json(blob) == result


def test_json_field_names_fixed():
    r = arith.trial_division(10403, 200)
    payload = result_to_dict(r)
    assert set(payload) == {"status", "p", "q", "method", "witness", "ops"}
    assert result_from_dict(payload) == r


def test_report_round_trip():
    rep = WeakClassReport(frozenset("bg"),
                          {"g": {"difference": 2, "weight": 1}},
                          SearchBudget(k=3, v_max=8, t_max=64))
    assert json.loads(json.dumps(report_to_dict(rep))) == {
        "classes": ["b", "g"],
        "witnesses": {"g": {"difference": "2", "weight": 1}},
        "checked_with": {"k": 3, "v_max": 8, "t_max": 64,
                         "multipliers": [1, 2, 4, 8], "op_cap": 1 << 40,
                         "seed": 0},
    }
    with pytest.raises(ValueError):
        WeakClassReport(frozenset("e"))
