"""Benchmark entry point: one workload, one seed, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it measures ``src/sparsefactor``
there.  It builds the workload's inputs from the seed, times the import of
the package in several fresh interpreters (set-up), runs the requests in a
fresh interpreter for S seconds of request time, checks every output, and
prints a report.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See NOTES.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checker
import inputs
import numtheory as nt
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9        # fresh imports besides the worker's own
DEADLINE_S = 170        # the whole run, set-up included
# worker.speed_probe's time at the reference host speed (a 2.1 GHz Xeon core)
REFERENCE_PROBE_S = 0.006

END_TO_END_UNITS = {
    "throughput_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "solved_frac": "ratio", "peak_rss_mib": "MiB", "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.startswith("count.") or name.endswith(".calls") or name in (
            "expansions.values", "cli.stages_per_request") or name.endswith(".ops"):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_us_p50"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def _worker(root, env, deadline, *args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         + proc.stderr.strip()[-2000:])
    return proc.stdout


def _run_worker(root, env, deadline, plan_path, out_path, *flags):
    _worker(root, env, deadline, plan_path, out_path, *flags)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def latency_tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with ten beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def at_reference_speed(latency, probe_s):
    """A latency measured while the probe took probe_s, at reference speed."""
    return latency * REFERENCE_PROBE_S / probe_s


def check_results(plan, results, check):
    """Checks each result; returns (solved, failures) with failure messages."""
    requests = plan["requests"]
    solved = 0
    failures = []
    for i, result in enumerate(results):
        req = requests[i % len(requests)]
        try:
            solved += bool(check.check(req, result))
        except checker.CheckFailure as exc:
            failures.append(f"request {i} ({req['kind']}): {exc}")
    return solved, failures


def _reported_ops(results):
    out = []
    for result in results:
        ops = []
        for call in result["calls"]:
            if call["stdout"].startswith("{") and '"status"' in call["stdout"]:
                try:
                    ops.append(json.loads(call["stdout"].splitlines()[-1])["ops"])
                except (ValueError, KeyError):
                    ops.append(None)
        out.append(ops)
    return out


def _cli_json(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue().splitlines()[-1])


def _probe_d1(cli, path, rng):
    """Blind audit of a 48-bit record with q - p far beyond N^(1/4)."""
    while True:
        p, q = sorted((nt.random_prime(rng, 24), nt.random_prime(rng, 24)))
        if p < q < 2 * p and q - p > 1 << 20:
            break
    n = p * q
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
    classes = _cli_json(cli, ["audit", "--in", path, "--json"])["classes"]
    return "b" in classes and not checker.class_holds(
        "b", n, p, q, {}, checker.default_k(n), checker.default_smoothness(n))


def _probe_d2(cli, path, rng):
    """A 120-bit class a record, audited back with the CLI's defaults."""
    seed = str(rng.randrange(1 << 30))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["generate", "--class", "a", "--bits", "120", "--count", "1",
                  "--seed", seed, "--out", path])
    return "a" not in _cli_json(cli, ["audit", "--in", path, "--json"])["classes"]


# Open program defects that the workloads do not reach; see NOTES.md.
DEFECT_PROBES = {
    "audit_blind": ("D1", "blind audit below 2^56 reports class b after a "
                    "BSGS split whatever q - p is", _probe_d1),
    "corpus": ("D2", "generate --class a below about 136 bits emits records "
               "the default audit does not put in class a", _probe_d2),
}


def _defect_probe(workload, work, seed):
    """Runs the workload's defect probe 3 times; (id, text, reproduced, probed)."""
    from sparsefactor import cli
    ident, text, probe = DEFECT_PROBES[workload]
    rng = random.Random(f"{ident}:{seed}")
    path = os.path.join(work, "probe.txt")
    return ident, text, sum(probe(cli, path, rng) for _ in range(3)), 3


def measure(root, workload, seed, seconds, trace, small=False, corrupt=None):
    """Runs one workload and returns the report dict (see main for its use).

    `corrupt`, for the self-check, edits the worker's results before they
    are checked.
    """
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparsefactor", "cli.py")):
        raise BenchError(f"no src/sparsefactor under {root}: run from a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    from sparsefactor import model

    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        plan = inputs.build(workload, seed, small)
        digest = hashlib.sha256(json.dumps(plan["requests"], sort_keys=True)
                                .encode()).hexdigest()[:16]
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        setups = [json.loads(_worker(root, env, deadline, "--setup-probe"))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        out_path = os.path.join(work, "out.json")
        flags = ["--seconds", str(seconds)]
        run = _run_worker(root, env, deadline, plan_path, out_path,
                          *flags, *(["--trace"] if trace else []))
        if not run["package_file"].startswith(src):
            raise BenchError(f"imported {run['package_file']}, not {src}")
        results = run["results"]
        setups.append(run["setup_s"])
        if corrupt:
            corrupt(plan, results)

        check = checker.Checker(model)
        solved, failures = check_results(plan, results, check)
        raw = [r["latency"] for r in results]
        latencies = [at_reference_speed(r["latency"], r["probe_s"]) for r in results]
        n = len(results)
        busy = sum(raw)
        report = {
            "workload": workload, "seed": seed, "inputs_sha256": digest,
            "attempted": n, "failed": len(failures), "failures": failures,
            "environment": {"nproc": os.cpu_count(), "python": run["python"],
                            "numpy": run["numpy"], "src_lines": _src_lines(root),
                            "seed": seed},
        }
        reported = _reported_ops(results)
        prefix = plan["prefix"]
        report["prefix"] = prefix
        if trace:
            untraced = _run_worker(root, env, deadline, plan_path, out_path,
                                   "--count", str(n))
            plain = sum(r["latency"] for r in untraced["results"])
            layers, absent = tracer.layer_metrics(run["trace"], reported,
                                                  check.verify_s, prefix)
            layers["trace.overhead_s"] = busy - plain
            layers["trace.overhead_frac"] = (busy - plain) / plain if plain else 0.0
            report["metrics"] = layers
            report["absent"] = absent
        else:
            tail, pct, beyond = latency_tail(latencies)
            report["metrics"] = {
                "throughput_per_s": n / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail,
                "solved_frac": solved / n,
                "peak_rss_mib": run["peak_rss_mib"],
                "setup_s": statistics.median(setups),
            }
            report["fail_frac"] = len(failures) / n
            report["tail"] = {"percentile": pct, "samples": n, "beyond": beyond}
            report["setup_samples"] = len(setups)
            report["raw"] = {"throughput_per_s": n / busy,
                             "latency_p50_s": statistics.median(raw),
                             "host_speed": sum(latencies) / busy}
            report["counters"] = {"count.ops_reported": sum(
                ops for per_req in reported[:prefix] for ops in per_req
                if ops is not None)}
        if workload in DEFECT_PROBES:
            report["defect_probe"] = _defect_probe(workload, work, seed)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def _print_report(report, trace):
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"inputs sha256:{report['inputs_sha256']}  "
          f"requests {report['attempted']}  counter prefix {report['prefix']}")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, src lines {env['src_lines']}")
    metrics = report["metrics"]
    if trace:
        for name in sorted(metrics):
            print(f"  {name:38s} {metrics[name]:.6g} {_unit(name)}")
        for reason in report["absent"]:
            print(f"  absent: {reason}")
    else:
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:18s} {metrics[name]:.6g} {unit}")
            if name == "solved_frac":
                print(f"  {'fail_frac':18s} {report['fail_frac']:.6g} ratio "
                      f"({report['failed']} of {report['attempted']})")
        tail = report["tail"]
        raw = report["raw"]
        print(f"  host speed {raw['host_speed']:.4g} of the reference over the run; "
              f"as measured, throughput_per_s {raw['throughput_per_s']:.6g} 1/s, "
              f"latency_p50_s {raw['latency_p50_s']:.6g} s")
        print(f"  latency_tail_s is p{tail['percentile']:.1f} of {tail['samples']} "
              f"samples, {tail['beyond']} beyond it; setup_s is the median of "
              f"{report['setup_samples']} fresh imports")
        for name, value in report["counters"].items():
            print(f"  {name} over the first {report['prefix']} requests: {value}")
    if "defect_probe" in report:
        ident, text, got, probed = report["defect_probe"]
        print(f"  open defect {ident} ({text}): reproduced on {got} of "
              f"{probed} probes outside the workload")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(os.getcwd(), args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.trace)
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or _unit(name)}
               for name, value in report["metrics"].items()}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
