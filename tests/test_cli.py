import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsefactor import cli
from sparsefactor.model import result_from_dict, verify_certificate


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_fermat_text(capsys):
    code, out, _ = run_cli(capsys, "factor", "15", "--method", "fermat")
    assert code == 0
    assert "15 = 3 * 5" in out


def test_factor_reference_fixture_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "448316072600119",
                           "--method", "xfermat", "--k", "5",
                           "--vmax", "12", "--tmax", "1642", "--json",
                           "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["p"], payload["q"]) == ("15402707", "29106317")
    payload.pop("elapsed_s")
    payload.pop("n")
    result = result_from_dict(payload)
    assert verify_certificate(448316072600119, result.certificate)
    assert result.certificate.witness["a"] == 1724
    assert result.certificate.witness["t"] == 339


def test_factor_structured_form(capsys):
    code, out, _ = run_cli(capsys, "factor", "4294967297",
                           "--method", "sparseexp", "--form", "fermat:5",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["p"], payload["q"]) == ("641", "6700417")


@pytest.mark.parametrize("argv,expected", [
    (["4294967297", "--form", "fermat:5"],
     {"method": "SparseExponent", "n": "4294967297", "ops": 3, "p": "641",
      "q": "6700417", "status": "Factored",
      "witness": {"a": "1", "b": "-2", "base": "3", "kind": "cyclotomic",
                  "period": "128", "steps": 3}}),
    (["253"],
     {"method": "SparseExponent", "n": "253", "ops": 7, "p": "11", "q": "23",
      "status": "Factored",
      "witness": {"base": "2", "exponent_bits": 17, "gcd_side": -1,
                  "kind": "grid",
                  "trace": [[[], [[1, 1]]], [[], [[-1, 1]]], [[], [[1, 2]]],
                            [[], [[-1, 2]]], [[], [[1, 2], [-1, 0]]],
                            [[], [[-1, 2], [1, 0]]], [[], [[1, 2], [1, 0]]]]}}),
    (["2047", "--form", "mersenne:11"],
     {"method": "SparseExponent", "n": "2047", "ops": 1, "p": "23", "q": "89",
      "status": "Factored",
      "witness": {"base": "3", "factors": ["2024"], "kind": "unity_root",
                  "square_ups": 2, "steps": 1}}),
    (["2047"],
     {"method": "SparseExponent", "n": "2047", "ops": 42, "p": "23",
      "q": "89", "status": "Factored",
      "witness": {"base": "1731",
                  "factors": ["2", "2", "4", "4", "8", "8", "3", "3", "5",
                              "5", "6", "6", "7", "7", "9", "9", "10", "10",
                              "2047", "2048", "2046"],
                  "kind": "unity_root", "square_ups": 1}}),
])
def test_structured_fixture_payloads(argv, expected, capsys):
    # F5, Germain 253 and Mersenne 2047, on the form and the grid paths
    code, out, _ = run_cli(capsys, "factor", argv[0], "--method", "sparseexp",
                           *argv[1:], "--json")
    assert code == 0
    payload = json.loads(out)
    del payload["elapsed_s"]
    assert payload == expected


def test_factor_exit_codes(capsys):
    assert run_cli(capsys, "factor", "10007")[0] == 2       # probable prime
    assert run_cli(capsys, "factor", "abc")[0] == 64        # malformed
    assert run_cli(capsys, "factor", "15", "--method", "nope")[0] == 64
    code, _, _ = run_cli(capsys, "factor", "10403", "--method", "pm1",
                         "--budget", "3")
    assert code == 0                                 # split at stage 3
    code, _, _ = run_cli(capsys, "factor", "10403", "--method", "pm1",
                         "--budget", "2")
    assert code == 1                                         # exhausted


@pytest.mark.parametrize("n,split,ops", [
    (10403, ("101", "103"), 3),
    (2881, ("43", "67"), None),
    (15049, ("101", "149"), None),
    (253, ("11", "23"), None),
    # 2047 = 23 * 89: both 22 and 88 carry 11, so every stage from 11 on
    # lands on 1 modulo both factors at once
    (2047, None, None),
])
def test_pm1_desk_bound(n, split, ops, capsys):
    # a bound scaled to a 14-bit N was 4: two stages, too few to split
    code, out, _ = run_cli(capsys, "factor", str(n), "--method", "pm1",
                           "--json")
    payload = json.loads(out)
    if split is None:
        assert code == 1 and payload["status"] == "Exhausted"
        return
    assert code == 0 and (payload["p"], payload["q"]) == split
    assert payload["witness"]["bound"] == 1 << 16
    if ops is not None:
        assert payload["ops"] == ops


def test_factor_hex_input(capsys):
    code, out, _ = run_cli(capsys, "factor", "0x28a3", "--method", "trial")
    assert code == 0
    assert "10403 = 101 * 103" in out


def test_factor_auto_cascade(capsys):
    code, out, _ = run_cli(capsys, "factor", "10403", "--method", "auto")
    assert code == 0
    assert "101 * 103" in out


def test_generate_and_audit_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    code, _, _ = run_cli(capsys, "generate", "--class", "g", "--bits", "64",
                         "--count", "3", "--seed", "7", "--out", str(corpus))
    assert code == 0
    lines = corpus.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = cli.CorpusRecord.parse(lines[0])
    assert rec.p * rec.q == rec.n
    assert rec.label == "g"

    code, out, _ = run_cli(capsys, "audit", "--in", str(corpus), "--json")
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        assert "g" in payload["classes"]


def test_generate_deterministic_bytes(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "generate", "--class", "g", "--bits",
                               "64", "--count", "2", "--seed", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_generate_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SPARSEFACTOR_SEED", "5")
    _, via_env, _ = run_cli(capsys, "generate", "--class", "g", "--bits",
                            "64", "--count", "2")
    monkeypatch.delenv("SPARSEFACTOR_SEED")
    _, via_flag, _ = run_cli(capsys, "generate", "--class", "g", "--bits",
                             "64", "--count", "2", "--seed", "5")
    assert via_env == via_flag


def test_generate_infeasible_exit(capsys):
    code, _, err = run_cli(capsys, "generate", "--class", "g", "--bits", "8",
                           "--count", "1")
    assert code == 1
    assert "generation exhausted" in err


def test_generate_jsonl(capsys):
    code, out, _ = run_cli(capsys, "generate", "--class", "b", "--bits", "64",
                           "--count", "2", "--seed", "3", "--format", "jsonl")
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        assert int(payload["p"]) * int(payload["q"]) == int(payload["n"])
        assert "b" in payload["report"]["classes"]


def test_audit_missing_file(capsys):
    code, _, err = run_cli(capsys, "audit", "--in", "/nonexistent/x.txt")
    assert code == 66
    assert err


def test_audit_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("15,3,7\n")  # 3 * 7 != 15
    code, _, err = run_cli(capsys, "audit", "--in", str(bad))
    assert code == 66
    assert "multiply" in err


def test_corpus_comment_and_blank_lines(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("# header comment\n\n10403,101,103,#class=g known\n")
    code, out, _ = run_cli(capsys, "audit", "--in", str(corpus))
    assert code == 0
    assert "10403" in out and "b" in out


def test_density_tables(capsys):
    code, out, _ = run_cli(capsys, "density", "--kind", "fermat",
                           "--xmax", "100000")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    ratios = [float(r[-1]) for r in rows]
    assert ratios == sorted(ratios, reverse=True)  # strictly thinning

    code, out, _ = run_cli(capsys, "density", "--kind", "romanoff",
                           "--xmax", "100000")
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        ratio = float(row.split()[-1])
        assert 0.1866 <= ratio <= 0.9819


@pytest.mark.parametrize("argv,code,status", [
    (["factor", "15049", "--method", "sparsediff", "--k", "2", "--vmax", "8",
      "--seed", "1"], 0, "Factored"),
    # the op cap bounds the whole search, not each worker's share of it
    (["factor", "448316072600119", "--method", "xfermat", "--k", "5",
      "--vmax", "12", "--tmax", "1642", "--budget", "5000000"], 1,
     "Exhausted"),
])
def test_workers_reproduce_certificates(argv, code, status, capsys):
    outs = []
    for workers in ("1", "2", "4"):
        got, out, _ = run_cli(capsys, *argv, "--workers", workers, "--json")
        assert got == code
        payload = json.loads(out)
        del payload["elapsed_s"]
        outs.append(payload)
    assert outs[0]["status"] == status
    assert outs[0] == outs[1] == outs[2]
    if status == "Exhausted":
        assert outs[0]["ops"] == 5_000_000


_REFERENCE_N = 448316072600119


@pytest.mark.parametrize("n,budget", [
    # the reference N needs 2,401 classic steps, more than either budget
    pytest.param(_REFERENCE_N, 1, id="1"),
    pytest.param(_REFERENCE_N, 1000, id="1000"),
    # p-1's degenerate restarts once added up their stages past the cap
    pytest.param(703, 11, id="703-11"),
    pytest.param(671, 5, id="671-5"),
    pytest.param(10007, 1, id="prime-1"),
])
@pytest.mark.parametrize("method", ["fermat", "xfermat", "bsgs",
                                    "sparsediff", "sparseexp", "trial",
                                    "pm1"])
def test_single_method_ops_within_budget(method, n, budget, capsys):
    code, out, _ = run_cli(capsys, "factor", str(n), "--method", method,
                           "--budget", str(budget), "--json")
    payload = json.loads(out)
    assert payload["ops"] <= budget
    if (n, method, budget) == (_REFERENCE_N, "pm1", 1000):
        # p - 1 = 2 * 11 * 421 * 1663: the stage of 1663, prime 261, splits
        assert code == 0 and payload["status"] == "Factored"
    elif n == _REFERENCE_N:
        assert code == 1 and payload["status"] == "Exhausted"
    elif n == 10007:
        assert code == 2 and payload["status"] == "ProbablePrime"
    else:
        assert code in (0, 1)


def test_bsgs_budget_bounds_a_122_bit_window(capsys):
    # uncapped, this N's balanced window needs m ~ 5.1e8 baby steps
    n = 1729382256910270481 * 2594073385365405751
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "factor", str(n), "--method", "bsgs",
                           "--budget", "100", "--json")
    assert time.perf_counter() - started < 1.0
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "Exhausted"
    assert payload["ops"] <= 100
    code, out, _ = run_cli(capsys, "factor", "15", "--method", "bsgs",
                           "--budget", "1")
    assert code == 1 and "Exhausted after 0 ops" in out


def test_uncapped_bsgs_bounds_a_122_bit_window():
    # without --budget the window is cut to 2^40 sums (m = 2^20), not the
    # m ~ 5.1e8 of the whole balanced window; the child runs under a 1 GiB
    # address-space limit, so a table that grows past it fails the test
    # rather than the machine
    n = 1729382256910270481 * 2594073385365405751
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from sparsefactor import cli; sys.exit(cli.main("
            f"['factor', '{n}', '--method', 'bsgs', '--json']))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 10.0
    assert proc.returncode == 1 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["status"] == "Exhausted"
    assert payload["ops"] == 2_097_437


def test_usage_error_exit(capsys):
    assert cli.main(["factor"]) == 64
    assert cli.main([]) == 64


_MAIN_SEQUENCE = [
    (["factor", "10403", "--method", "xfermat", "--k", "1", "--vmax", "4",
      "--seed", "7", "--json"], 0),
    (["factor", "10403", "--method", "trial"], 0),
    (["generate", "--class", "b", "--bits", "64", "--k", "2", "--seed", "3"],
     0),
    (["factor", "10403", "--budget", "0"], 64),
    (["factor", "10403", "--bogus"], 64),
    (["density", "--kind", "fermat", "--xmax", "10000"], 0),
    (["factor", "10403"], 0),
]


def test_main_reuses_one_parser_without_leaking_state(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    fresh = cli.build_parser.__wrapped__
    for argv, want in _MAIN_SEQUENCE + _MAIN_SEQUENCE[::-1]:
        code, out, err = run_cli(capsys, *argv)
        assert code == want, argv
        assert (out == "") == (want == 64) and "Traceback" not in err
        assert out.startswith("{") == ("--json" in argv)
        if "--bogus" not in argv:
            # flags set by an earlier call never reach a later namespace
            assert vars(parser.parse_args(argv)) == vars(fresh().parse_args(argv))


@pytest.mark.parametrize("argv,code", [
    # a flag the chosen method does not read
    (["factor", "10403", "--method", "fermat", "--form", "fermat:5"], 64),
    (["factor", "10403", "--method", "xfermat", "--trials", "3"], 64),
    (["factor", "10403", "--budget", "0"], 64),
    (["factor", "10403", "--method", "xfermat", "--tmax", "-5"], 64),
    (["generate", "--class", "b", "--bits", "64", "--count", "0"], 64),
    (["audit", "--in", "{corpus}"], 66),
    (["factor", "10403", "--method", "sparsediff", "--multipliers", "0"], 64),
    (["factor", "10403", "--method", "sparsediff", "--multipliers", "-1"], 64),
    (["density", "--kind", "fermat", "--xmax", "0"], 64),
    (["density", "--kind", "romanoff", "--xmax", "0"], 64),
    (["factor", "8051", "--method", "sparseexp", "--trials", "0"], 64),
    (["factor", "8051", "--method", "sparseexp", "--trials", "-1"], 64),
    (["audit", "--in", "{good}", "--k", "0"], 64),
    (["generate", "--class", "b", "--bits", "64", "--count", "1", "--k", "0"],
     64),
    (["generate", "--class", "g", "--bits", "64", "--vmax", "-1"], 64),
    (["factor", "2047", "--method", "sparseexp", "--form", "fermat:100"], 64),
    (["factor", "2047", "--method", "sparseexp", "--form",
      "mersenne:99999999999999999999"], 64),
    # stated factors outside 1 < p <= q, and a record with a fourth field
    (["audit", "--in", "{trivial}"], 66),
    (["audit", "--in", "{negative}"], 66),
    (["audit", "--in", "{extra}"], 66),
    # an even N, blind and with stated factors, and a prime N
    (["audit", "--in", "{even}"], 66),
    (["audit", "--in", "{even_factors}"], 66),
    (["audit", "--in", "{prime}"], 66),
    # a search flag the chosen method does not read
    (["factor", "10403", "--method", "trial", "--k", "3"], 64),
    (["factor", "10403", "--method", "bsgs", "--vmax", "4"], 64),
    (["factor", "10403", "--method", "fermat", "--multipliers", "1,2"], 64),
    (["factor", "10403", "--method", "xfermat", "--multipliers", "1,2"], 64),
    (["factor", "10403", "--method", "sparsediff", "--tmax", "8"], 64),
    (["factor", "10403", "--method", "sparseexp", "--tmax", "8"], 64),
    (["factor", "10403", "--method", "pm1", "--k", "2"], 64),
    # a composite stated factor (35 = 5 * 7)
    (["audit", "--in", "{composite}"], 66),
    # an --out path that cannot be written: a missing directory, a directory
    (["generate", "--class", "g", "--bits", "32", "--out", "{missing}"], 64),
    (["generate", "--class", "g", "--bits", "32", "--out", "{directory}"], 64),
])
def test_misuse_exits_with_one_line_error(argv, code, tmp_path, capsys):
    records = {"corpus": "10403,101,103\n9\n",  # N = 9 is below the auditor's 15
               "good": "10403,101,103\n", "trivial": "15,1,15\n",
               "negative": "15,-3,-5\n", "extra": "15,3,5,7\n",
               "even": "16\n", "even_factors": "16,2,8\n",
               "prime": "10007\n", "composite": "105,3,35\n"}
    paths = {}
    for name, text in records.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    paths["missing"] = tmp_path / "absent" / "out.txt"
    paths["directory"] = tmp_path
    argv = [a.format(**paths) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    if "--multipliers" in argv:
        # the budget names the bad field, not an isqrt() failure deep inside
        assert "multiplier" in err


# Argv fuzzing: a subcommand, then flags of all four subcommands, each
# with a value from its valid, boundary or malformed pool.  Every pool
# keeps a run short: N below 2^40, --budget at most 2,000 (every factor
# run gets one), --bits at most 64, --count at most 2, --xmax at most
# 10^5.  {name} is a path of the fuzz_paths fixture.
_FUZZ_VALUES = {
    "--method": (list(cli.ENGINES), [], ["bogus", ""]),
    "--form": (["mersenne:5", "fermat:4"], ["mersenne:0", "fermat:100"],
               ["mersenne:x", "cubic:3", ""]),
    "--trials": (["1", "3"], ["0", "-1"], ["x", "1.5"]),
    "--json": None,
    "--workers": (["1", "2"], ["0", "-3"], ["x"]),
    "--k": (["2", "3", "6"], ["0", "1", "-1"], ["x"]),
    "--vmax": (["12", "32", "64"], ["0", "1", "-1"], ["x"]),
    "--tmax": (["8", "4096"], ["0", "-5"], ["x"]),
    "--budget": (["50", "2000"], ["0", "1", "-1"], ["x"]),
    "--multipliers": (["1", "1,2,4,8", "3"], ["0", "-1"], ["1,,2", "a", ""]),
    "--seed": (["0", "7"], ["-1"], ["x"]),
    "--class": (["a", "b", "c", "d", "f", "g"], [], ["e", ""]),
    "--bits": (["32", "48", "64"], ["0", "2", "8", "16", "-8"], ["x"]),
    "--count": (["1", "2"], ["0", "-1"], ["x"]),
    "--out": (["{fresh}"], ["{missing}", "{directory}"], [""]),
    "--format": (["text", "jsonl"], [], ["xml"]),
    "--in": (["{good}", "{blind}"], ["{empty}", "{missing}", "{directory}"],
             ["{malformed}", ""]),
    "--kind": (["fermat", "romanoff"], [], ["primes"]),
    "--xmax": (["10000", "100000"], ["1", "9999", "0", "-1"], ["x"]),
    # factor's N
    "N": (["10403", "8051", "10007", "3145719", "1099503239183",
           "1099511627689", "0x3fffffffff"], ["1", "2", "3", "4", "9"],
          ["0", "-15", "x", "0x", "1e5", ""]),
}
_FUZZ_COMMANDS = {
    "factor": ["--method", "--form", "--trials", "--json", "--workers", "--k",
               "--vmax", "--tmax", "--multipliers", "--seed"],
    "generate": ["--count", "--out", "--format", "--k", "--vmax", "--seed"],
    "audit": ["--json", "--k", "--seed"],
    "density": ["--xmax"],
}
_FUZZ_REQUIRED = {"factor": ["N", "--budget"],
                  "generate": ["--class", "--bits"], "audit": ["--in"],
                  "density": ["--kind"]}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    # the required flags nearly always, each optional one a third of the
    # time, and at times a flag of any subcommand, which this one may not take
    flags = [f for f in _FUZZ_REQUIRED[command] if draw(st.integers(0, 9))]
    flags += [f for f in _FUZZ_COMMANDS[command]
              if not draw(st.integers(0, 2))]
    if not draw(st.integers(0, 4)):
        flags.append(draw(st.sampled_from(sorted(_FUZZ_VALUES))))
    if command == "factor" and "--budget" not in flags:
        flags.append("--budget")
    pairs = []
    for flag in dict.fromkeys(flags):
        if _FUZZ_VALUES[flag] is None:
            pairs.append([flag])
            continue
        valid, boundary, malformed = _FUZZ_VALUES[flag]
        pool = draw(st.sampled_from([valid] * 3 + [boundary or valid,
                                                   malformed]))
        value = draw(st.sampled_from(pool))
        pairs.append([value] if flag == "N" else [flag, value])
    return [command, *itertools.chain.from_iterable(
        draw(st.permutations(pairs)))]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    records = {"good": "10403,101,103\n", "blind": "10403\n",
               "malformed": "10403,101\n", "empty": ""}
    paths = {"fresh": root / "out.txt", "missing": root / "absent" / "x",
             "directory": root}
    for name, text in records.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(text)
    return paths


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(argv=_fuzz_argv())
@example(argv=["generate", "--class", "g", "--bits", "32", "--out",
               "{missing}"])
@example(argv=["generate", "--class", "g", "--bits", "32", "--out",
               "{directory}"])
def test_fuzzed_argv_exits_cleanly(argv, fuzz_paths):
    argv = [a.format(**fuzz_paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # nothing may escape
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 64, 66), (argv, code)
    assert "Traceback" not in err
    if code in (64, 66):
        # argparse's own errors print a usage block first
        assert out == "" and "error: " in err.splitlines()[-1], (argv, err)


@pytest.mark.parametrize("vmax, code", [("0", 1), ("1", 0)])
def test_generate_tiny_vmax_exits_cleanly(vmax, code, capsys):
    # --vmax 0 leaves only q - p = 1, never a gap between odd primes;
    # --vmax 1 adds q - p = 2
    got, out, err = run_cli(capsys, "generate", "--class", "g", "--bits",
                            "64", "--vmax", vmax)
    assert got == code
    if code:
        assert out == "" and err == "error: generation exhausted\n"
    else:
        assert err == "" and out.count("\n") == 1


def test_workers_reduce_on_multiplier_then_index(capsys):
    # multiplier b = 1 hits at stream index 499 and b = 2 at index 0: the
    # engine searches b before index, so every worker count keeps b = 1
    witnesses = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "factor", "140462769807361",
                               "--method", "sparsediff", "--multipliers",
                               "1,2", "--k", "2", "--vmax", "28",
                               "--workers", workers, "--json")
        assert code == 0
        witnesses.append(json.loads(out)["witness"])
    assert witnesses[0]["b"] == "1" and witnesses[0]["index"] == 499
    assert witnesses[1] == witnesses[0]


def test_generated_class_a_audits_back_by_default(capsys, tmp_path):
    # the generator and the default audit share one size-derived bound
    corpus = tmp_path / "a120.txt"
    code, _, _ = run_cli(capsys, "generate", "--class", "a", "--bits", "120",
                         "--count", "5", "--seed", "3", "--out", str(corpus))
    assert code == 0
    code, out, _ = run_cli(capsys, "audit", "--in", str(corpus), "--json")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 5
    assert all("a" in r["classes"] for r in reports)
