"""Golden digests of whole CLI requests, end to end.

`data/plan_requests.json` freezes the first 60 requests of the benchmark's
scan, audit_blind and factor_auto request plans at seed 5: each request's
argv (with the ignored `--workers` flag dropped) and, for an audit, the
record line its corpus file holds.  Each request runs through `cli.main`,
and its exit code, stdout without `elapsed_s`, and stderr are hashed, so
any change to a certificate, an op count, a report or an exit code in
these requests moves a digest.  The plans are read from the data file,
never rebuilt, so a change to the benchmark cannot move the test.
"""

import hashlib
import json
import pathlib

import pytest

from sparsefactor import cli

_REQUESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "plan_requests.json").read_text())

_GOLDEN = {
    "scan":
        "d78c1d4c99a394d35d3fde0b42ca4464a3abe4f81f597db361168a14fc50b48b",
    "audit_blind":
        "1c38aec9e95a944463ca8cdd95261409b33bc1fb1e50b926b2f6ab8b4afddca9",
    "factor_auto":
        "de3be169f54717eb3bb51e6274b464c49d9ce52082995f7ab3a56c29d386ce63",
}


def _without_elapsed(stdout):
    lines = []
    for line in stdout.splitlines():
        payload = json.loads(line)
        payload.pop("elapsed_s", None)
        lines.append(json.dumps(payload, sort_keys=True))
    return lines


@pytest.mark.parametrize("workload", sorted(_GOLDEN))
def test_plan_outputs_golden(workload, tmp_path, capsys):
    record = tmp_path / "record.txt"
    digest = hashlib.sha256()
    for request in _REQUESTS[workload]:
        if "record" in request:
            record.write_text(request["record"] + "\n")
        argv = [str(record) if a == "{file}" else a for a in request["argv"]]
        code = cli.main(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([code, _without_elapsed(captured.out),
                                  captured.err]).encode() + b"\n")
    assert digest.hexdigest() == _GOLDEN[workload]
