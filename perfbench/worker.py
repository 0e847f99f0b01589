"""One workload's requests in a fresh interpreter; started by run.py.

    worker.py --setup-probe
    worker.py PLAN OUT [--trace] (--seconds S | --count N)

The first thing the process does is import the package and its CLI, and
that time is its set-up time.  Then it runs the plan's requests in order
through ``sparsefactor.cli.main`` as a closed loop with one client: each
request starts when the previous one has returned.  It stops once the time
spent inside requests reaches S seconds and at least the plan's prefix has
run, or after exactly N requests.  Outputs are written to OUT unchecked;
run.py checks them, outside the timed region.

Between requests, outside the timed region, the worker times a fixed
host-speed probe of the benchmark's own (at the start, then after the first
request that ends at least PROBE_EVERY_S after the previous probe, and at
the end).  Each result carries the mean of the probes just before and just
after it, so run.py can express its latency at a reference host speed.
"""

import time

_t0 = time.perf_counter()
import sparsefactor  # noqa: E402
import sparsefactor.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sparsefactor.cli.main(argv)
        except Exception:
            exc = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exc": exc}


PROBE_EVERY_S = 0.25
_PROBE_N = 448316072600119


def speed_probe():
    """Seconds for a fixed piece of work like the program's own inner loops.

    Big-int square tests as in the Fermat-family scans, sorting a list of
    ints as in weight-level builds, and tuple growth as in the
    sparse-exponent trace; about 6 ms on a 2.1 GHz Xeon.  Nothing of the
    package runs, so no change to the program moves it.  The cyclic garbage
    collector is paused meanwhile, so that the probe neither pays for a
    collection of the program's heap nor takes one off a request.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        four_n = 4 * _PROBE_N
        x = math.isqrt(four_n) + 1
        hits = 0
        for _ in range(12000):
            r = x * x - four_n
            s = math.isqrt(r)
            hits += s * s == r
            x += 1
        level = sorted([(i * 2654435761) % 1000003 for i in range(12000)])
        trail = ()
        for i in range(500):
            trail = trail + (i,)
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if hits < 0 or not level or len(trail) != 500:
        raise AssertionError("speed probe")
    return elapsed


def run(plan, seconds, count, tracer, path):
    """Runs requests in order; `path` is the corpus file audit and generate use."""
    requests = plan["requests"]
    results = []
    busy = 0.0
    pending = []  # results still waiting for the probe after them

    def probe_after():
        after = speed_probe()
        for done in pending:
            done["probe_s"] = (done["probe_s"] + after) / 2
        pending.clear()
        return after, time.perf_counter()

    speed_probe()  # warm-up, discarded
    probe, probed_at = probe_after()
    while True:
        if count is not None:
            if len(results) >= count:
                break
        elif busy >= seconds and len(results) >= plan["prefix"]:
            break
        i = len(results)
        req = requests[i % len(requests)]
        if "record" in req:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(req["record"] + "\n")
        calls = [[path if a == "{file}" else a for a in argv]
                 for argv in req["calls"]]
        if tracer:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        outputs = [_call(argv) for argv in calls]
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_request()
        busy += latency
        entry = {"latency": latency, "calls": outputs, "probe_s": probe}
        pending.append(entry)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                entry["file_text"] = fh.read()
            os.remove(path)
        results.append(entry)
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            probe, probed_at = probe_after()
    probe_after()
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("plan", nargs="?")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    args = parser.parse_args()
    if args.setup_probe:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(sparsefactor)
    record = os.path.join(os.path.dirname(os.path.abspath(args.out)), "record.txt")
    results = run(plan, args.seconds, args.count, tracer, record)
    out = {
        "setup_s": SETUP_S,
        "results": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "package_file": sparsefactor.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        out["trace"] = tracer.dump()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
