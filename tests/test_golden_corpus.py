"""Golden digest of `generate` and `audit --json` output.

Corpora and audit reports are stored by callers and compared across
versions, so their bytes are pinned: every weak class in both formats at
64, 96 and 128 bits (seed 5), then the text records audited with their
stated factors and blind.
"""

import hashlib

from sparsefactor import cli

_GOLDEN = "d29528e60d62565f936b05fec9d83d4701d32d3fd9d530b95593162a07e703a5"


def test_generate_and_audit_bytes(tmp_path, capsys):
    digest = hashlib.sha256()
    records = []
    for bits in ("64", "96", "128"):
        for weak_class in "abcdfg":
            for fmt in ("text", "jsonl"):
                code = cli.main(["generate", "--class", weak_class,
                                 "--bits", bits, "--count", "2",
                                 "--seed", "5", "--format", fmt])
                out = capsys.readouterr().out
                assert code == 0
                digest.update(out.encode())
                if fmt == "text":
                    records += out.splitlines()
    known = tmp_path / "known.txt"
    known.write_text("\n".join(records) + "\n")
    blind = tmp_path / "blind.txt"
    blind.write_text("".join(r.split(",")[0] + "\n" for r in records))
    for path in (known, blind):
        code = cli.main(["audit", "--in", str(path), "--json", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("\n") == len(records)
        digest.update(out.encode())
    assert digest.hexdigest() == _GOLDEN
