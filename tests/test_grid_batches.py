"""The batched exponent engines against plain per-step loops.

The references in `reference.py` walk the same grid order, or the same
p-1 stages and bases, as the engines but raise x by one factor at a time
and take the gcds after every step, with no batching.  Each engine must
agree with its reference on the whole `result_to_dict` payload: batching
may only skip gcds, never change a certificate, an op count or the edge at
the op cap.  The references keep builtin `pow`, so the engines'
modular-power kernel is held to it too.
"""

import random

from hypothesis import given, settings, strategies as st
import pytest

from conftest import random_semiprime
from reference import ref_grid, ref_pollard_pm1, ref_sparse_exponent
from sparsefactor.arith import POW_BATCH, is_probable_prime, pollard_pm1
from sparsefactor.model import SearchBudget, result_to_dict
from sparsefactor.sparse_exp import sparse_exponent_factor


def _pair(n, k, v, trials, seed, cap):
    budget = SearchBudget(k=k, v_max=v, t_max=4, op_cap=cap)
    got = result_to_dict(sparse_exponent_factor(n, budget, trials, seed))
    want = result_to_dict(ref_sparse_exponent(n, budget, trials, seed))
    return got, want


def _grid_size(n, k, v):
    return sum(1 for _ in ref_grid(n, k, v))


@pytest.mark.parametrize("trials", [1, 2, 3, 4])
def test_every_cap_matches_per_step_loop(trials):
    # caps 1-150 cross the batch edges at 64 and 128; grids (k, v) of
    # (2, 3), (2, 2) and (1, 3) hold 228, 63 and 42 steps, so runs go dry
    # below, at and above a cap, and later bases start at any op count
    rng = random.Random(900 + trials)
    outcomes = set()
    for k, v in ((2, 3), (2, 2), (1, 3)):
        n, _, _ = random_semiprime(rng, rng.choice((24, 32, 40, 48)))
        seed = rng.randint(0, 20)
        for cap in range(1, 151):
            got, want = _pair(n, k, v, trials, seed, cap)
            assert got == want, (n, k, v, trials, seed, cap)
            outcomes.add((got["status"], got["ops"] == cap, cap > 128))
    # some run is capped past the second batch edge, some runs dry
    assert ("Exhausted", True, True) in outcomes
    assert ("Exhausted", False, True) in outcomes or trials == 4


@pytest.mark.parametrize("case, ops", [
    ((174591523, 3, 4, 1, 19), POW_BATCH),          # last step of batch 1
    ((135301553, 3, 7, 1, 12), POW_BATCH + 1),      # first step of batch 2
    ((2379707017, 2, 7, 1, 2), 2 * POW_BATCH),      # last step of batch 2
    ((1506788879, 3, 5, 1, 2), 2 * POW_BATCH + 1),  # first step of batch 3
])
def test_hit_on_a_batch_edge(case, ops):
    got, want = _pair(*case, 5000)
    assert got == want
    assert (got["ops"], got["witness"]["kind"]) == (ops, "grid")
    for cap in (ops - 1, ops, ops + 1):
        got, want = _pair(*case, cap)
        assert got == want
    assert got["status"] == "Factored"


def test_unity_root_inside_a_replayed_batch():
    case = (33227, 3, 6, 1, 18)
    got, want = _pair(*case, 5000)
    assert got == want
    assert (got["ops"], got["witness"]["kind"]) == (95, "unity_root")
    assert _pair(*case, 94)[0] == {"status": "Exhausted", "ops": 94}


def test_minus_one_step_does_not_stop_the_walk():
    # base 2 on F6 = 2^64 + 1: factors 2, 2, 4, 4 give x = 2^64 = -1 (mod
    # N), and so does the next factor N; the factor N + 1 then gives
    # x = 1, unity recovery meets -1 and abandons the base, and the second
    # base, whose batches count from its own first step, splits N at op 16
    n = (1 << 64) + 1
    powers = []
    budget = SearchBudget(k=1, v_max=2, t_max=4, op_cap=5000)
    ref_sparse_exponent(n, budget, 2, 0, powers)
    assert powers[3] == powers[4] == n - 1 and powers[5] == 1
    for trials in (1, 2):
        for cap in (4, 5, 6, 7, 16, 5000):
            got, want = _pair(n, 1, 2, trials, 0, cap)
            assert got == want
    assert got["ops"] == 16 and got["witness"]["kind"] == "grid"


@pytest.mark.parametrize("case", [(11021, 1, 3, 2, 0), (26989, 1, 1, 2, 5)])
def test_grid_dry_exactly_at_the_cap_moves_to_the_next_base(case):
    # base 2 walks the whole grid without a split; at a cap equal to the
    # grid size the next base still gets its lucky gcd check
    n, k, v, trials, seed = case
    size = _grid_size(n, k, v)
    got, want = _pair(n, k, v, trials, seed, size)
    assert got == want
    assert (got["ops"], got["witness"]["kind"]) == (size, "lucky")
    assert _pair(n, k, v, 1, seed, size)[0] == {"status": "Exhausted",
                                                "ops": size}
    assert _pair(n, k, v, trials, seed, size - 1)[0] == {
        "status": "Exhausted", "ops": size - 1}


@pytest.mark.parametrize("case", [(460631, 2, 2, 4, 0), (660571, 2, 2, 2, 5)])
def test_plus_side_hit_ending_a_batch(case):
    # the split at op 5 has x = -1 modulo one prime; with the cap at 5 the
    # batch ends on that step, so its last value is -1 mod p, not 1
    for cap in range(1, 12):
        got, want = _pair(*case, cap)
        assert got == want
    got = _pair(*case, 5)[0]
    assert (got["ops"], got["witness"]["gcd_side"]) == (5, 1)


def test_pm1_every_cap_matches_per_stage_loop():
    # bound 1000 has 168 stages, so caps 1-150 cross the batch edges at 64
    # and 128; the fixed cases degenerate: six bases before a split, all
    # eight bases, base 1, and bounds with zero or one stage
    cases = [(1529328643, 1000, 2), (2047, 30, 2), (10403, 1000, 1),
             (10403, 1, 2), (10403, 2, 2), (91, 100, 2)]
    rng = random.Random(2028)
    for _ in range(8):
        n, _, _ = random_semiprime(rng, rng.choice((24, 32, 40, 48)))
        cases.append((n, 1000, rng.choice((2, 3, 5))))
    outcomes = set()
    for n, bound, t in cases:
        for cap in range(1, 151):
            got = result_to_dict(pollard_pm1(n, bound, t, op_cap=cap))
            want = result_to_dict(ref_pollard_pm1(n, bound, t, cap))
            assert got == want, (n, bound, t, cap)
            outcomes.add((got["status"], got["ops"] > 128))
    # some run splits past the second batch edge, some is capped there
    assert {("Factored", True), ("Exhausted", True)} <= outcomes


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(bits=st.sampled_from(range(20, 49)), balanced=st.booleans(),
       cap=st.sampled_from(range(1, 301)), k=st.integers(1, 3),
       v=st.integers(2, 8), trials=st.integers(1, 3), seed=st.integers(0, 20),
       bound=st.sampled_from((10, 100, 1000, 10000)),
       base=st.sampled_from((2, 3, 5)), rng=st.randoms(use_true_random=False))
def test_engines_match_references_on_drawn_n(bits, balanced, cap, k, v,
                                             trials, seed, bound, base, rng):
    # an odd composite of about the drawn size: a balanced semiprime, which
    # takes many steps to split, or any odd composite; the op cap is drawn
    # evenly from 1-300, so runs end on both sides of the batch edges
    if balanced:
        n, _, _ = random_semiprime(rng, bits)
    else:
        n = 3  # a prime, so the loop draws at least once
        while is_probable_prime(n):
            n = rng.getrandbits(bits - 1) | 1 << (bits - 1) | 1
    got, want = _pair(n, k, v, trials, seed, cap)
    assert got == want
    got = result_to_dict(pollard_pm1(n, bound, base, op_cap=cap))
    assert got == result_to_dict(ref_pollard_pm1(n, bound, base, cap))
