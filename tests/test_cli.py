import json

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


def test_factor_exit_codes(capsys):
    assert run_cli(capsys, "factor", "10007")[0] == 2       # probable prime
    assert run_cli(capsys, "factor", "abc")[0] == 64        # malformed
    assert run_cli(capsys, "factor", "15", "--method", "nope")[0] == 64
    code, _, _ = run_cli(capsys, "factor", "10403", "--method", "pm1",
                         "--budget", "3")
    assert code == 1                                         # exhausted


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


def test_bench_fixture_suites(capsys):
    assert run_cli(capsys, "bench", "--suite", "f5")[0] == 0
    assert run_cli(capsys, "bench", "--suite", "germain")[0] == 0
    code, out, _ = run_cli(capsys, "bench", "--suite", "desk")
    assert code == 0
    assert "trial" in out and "sparseexp" in out


def test_workers_reproduce_certificates(capsys):
    # ops counts partition-local probes; the certificate is what must match
    outs = []
    for workers in ("1", "4"):
        code, out, _ = run_cli(capsys, "factor", "15049", "--method",
                               "sparsediff", "--k", "2", "--vmax", "8",
                               "--seed", "1", "--workers", workers, "--json")
        assert code == 0
        payload = json.loads(out)
        outs.append({k: payload[k]
                     for k in ("status", "p", "q", "method", "witness")})
    assert outs[0] == outs[1]


def test_usage_error_exit(capsys):
    assert cli.main(["factor"]) == 64
    assert cli.main([]) == 64


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
