"""Tracing from outside the program: wrappers, spans, counters, layer metrics.

``Tracer.install`` replaces each public function of the package's modules in
every namespace where callers look it up (``from .arith import
perfect_square`` binds a second name for the same function, and that name
is replaced too).  Engine and stage entry points record spans; every other
public function records counters only, because it is called per candidate.
Spans are kept in memory and returned by ``Tracer.dump`` when the run ends.

``layer_metrics`` turns a dump into the per-layer metrics listed in
``BENCHMARK.json``.  Times and counts are per completed request unless the
name says otherwise.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time

LAYERS = ("cli", "model", "arith", "expansions", "fermat", "sparse_diff",
          "sparse_exp", "weakset")

# Engine and stage boundaries: these get spans.
SPANS = frozenset({
    "cli.main",
    "arith.trial_division", "arith.pollard_pm1",
    "fermat.classic_fermat", "fermat.extended_fermat_offset",
    "fermat.extended_fermat_sparse", "fermat.bsgs_fermat",
    "sparse_diff.sparse_difference_factor",
    "sparse_exp.sparse_exponent_factor", "sparse_exp.germain_factor",
    "sparse_exp.cyclotomic_form_factor",
    "weakset.audit", "weakset.generate_weak",
})
# Called once per candidate: counted, not timed, to keep the overhead low.
CALLS_ONLY = frozenset({"arith.perfect_square"})
# The first value of a weight level that took this long waited for a build.
COLD_WAIT_S = 1e-3
# Stages of the auto cascade and the engines the deterministic counters sum.
ENGINES = ("arith.trial_division", "fermat.classic_fermat",
           "fermat.extended_fermat_sparse", "fermat.bsgs_fermat",
           "sparse_diff.sparse_difference_factor",
           "sparse_exp.sparse_exponent_factor", "arith.pollard_pm1")

_now = time.perf_counter


class _Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "req", "nested",
                 "attrs", "steps")

    def __init__(self, sid, name, parent, req):
        self.sid, self.name, self.parent, self.req = sid, name, parent, req
        self.start = self.end = 0.0
        self.nested = 0.0  # time in other layers' counted calls
        self.attrs = {}
        self.steps = None


class Tracer:
    """Records spans and counters for the requests of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main_stack = []
        self._all_cells = []  # every thread's counter cells
        self.spans = []
        self.requests = []
        self.step_times = []
        self._req = None
        self._cur = None

    # -- request boundaries -------------------------------------------------

    def begin_request(self, rid: int) -> None:
        self._req = rid
        self._cur = {"counters": {}, "level_wait_max": 0.0, "cold": False}
        self._main_stack = self._stack()
        for cells in self._all_cells:
            cells.clear()

    def end_request(self) -> None:
        """Called after the request returned, when its threads have joined."""
        counters = self._cur["counters"]
        for cells in self._all_cells:
            for name, (calls, spent) in cells.items():
                slot = counters.setdefault(name, [0, 0.0])
                slot[0] += calls
                slot[1] += spent
            cells.clear()
        self.requests.append(self._cur)
        self._req = self._cur = None

    def dump(self) -> dict:
        return {
            "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.req,
                       s.nested, s.attrs] for s in self.spans],
            "requests": self.requests,
            "step_us_p50": (statistics.median(self.step_times) * 1e6
                            if self.step_times else 0.0),
        }

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                # only the entry point of the cli layer is a layer boundary
                if layer == "cli" and name not in SPANS:
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)

    def _wrap(self, name, fn):
        if name in SPANS:
            return self._span_wrapper(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._stream_wrapper(fn)
        return self._counter_wrapper(name, fn, timed=name not in CALLS_ONLY)

    # -- per-thread state ----------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.depth = 0
            self._local.cells = {}
            with self._lock:
                self._all_cells.append(self._local.cells)
        return st

    def _innermost(self):
        st = self._stack()
        if st:
            return st[-1]
        # a worker thread of the program's fan-out: its caller is blocked
        # in the main thread's innermost span
        return self._main_stack[-1] if self._main_stack else None

    def _count(self, name, dt, calls=1):
        """Adds to this thread's cells; end_request sums all threads'."""
        self._stack()
        cells = self._local.cells
        slot = cells.get(name)
        if slot is None:
            slot = cells[name] = [0, 0.0]
        slot[0] += calls
        slot[1] += dt

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._innermost()
            span = _Span(next(tracer._ids), name,
                         parent.sid if parent else None, tracer._req)
            st = tracer._stack()
            st.append(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            else:
                _describe(span, name, args, kwargs, result)
                return result
            finally:
                span.end = _now()
                st.pop()
                if span.steps:
                    _summarize_steps(span)
                tracer.spans.append(span)

        return wrapper

    def _counter_wrapper(self, name, fn, timed):
        tracer = self
        layer = name.split(".", 1)[0]
        is_step = name == "sparse_exp.exponent_step"

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count(name, 0.0)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._stack()
            local = tracer._local
            local.depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                local.depth -= 1
                tracer._count(name, dt)
                span = tracer._innermost()
                if span is not None:
                    if local.depth == 0 and span.name.split(".", 1)[0] != layer:
                        span.nested += dt
                    if is_step:
                        if span.steps is None:
                            span.steps = []
                        span.steps.append(dt)
                        tracer.step_times.append(dt)

        return wrapper

    def _stream_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._timed_stream(fn(*args, **kwargs))

        return wrapper

    def _timed_stream(self, stream):
        """Times each next(); notes the wait for each weight level's first value.

        Totals are kept in locals and added when the stream ends, so the
        per-value cost stays two clock reads and a weight.
        """
        self._stack()
        local = self._local
        span = self._innermost()
        level = -1
        values = 0
        spent = wait_max = 0.0
        try:
            while True:
                nested = local.depth > 0
                local.depth += 1
                t0 = _now()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    dt = _now() - t0
                    local.depth -= 1
                    if not nested:
                        spent += dt
                if not nested:
                    values += 1
                    w = _weight(item)
                    if w != level:
                        level = w
                        wait_max = max(wait_max, dt)
                yield item
        finally:
            stream.close()
            self._count("expansions.values", spent, values)
            if span is not None:
                span.nested += spent
            cur = self._cur
            if cur is not None:
                with self._lock:
                    cur["level_wait_max"] = max(cur["level_wait_max"], wait_max)
                    cur["cold"] = cur["cold"] or wait_max >= COLD_WAIT_S


def _weight(item):
    """NAF weight of a stream item: an int, an (index, int) pair or a SparseInt."""
    if hasattr(item, "terms"):
        return len(item.terms)
    m = abs(item[1] if isinstance(item, tuple) else item)
    return (m ^ 3 * m).bit_count()


def _describe(span, name, args, kwargs, result):
    if hasattr(result, "ops") and hasattr(result, "status"):
        span.attrs["ops"] = result.ops
        span.attrs["status"] = result.status
    elif name == "weakset.audit":
        factors = args[1] if len(args) > 1 else kwargs.get("factors")
        span.attrs["blind"] = factors is None
        span.attrs["classes"] = len(result.classes)
    elif name == "weakset.generate_weak":
        span.attrs["emitted"] = len(result)
    elif name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        span.attrs["command"] = argv[0] if argv else None


def _summarize_steps(span):
    steps = span.steps
    span.attrs["steps"] = len(steps)
    tenth = len(steps) // 10
    if tenth >= 10:
        first = sum(steps[:tenth]) / tenth
        last = sum(steps[-tenth:]) / tenth
        span.attrs["step_growth"] = last / first if first > 0 else 0.0
    span.steps = None


# ---------------------------------------------------------------------------
# per-layer metrics from a dump
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dump: dict, reported_ops: list, verify_s: list,
                  prefix: int) -> tuple[dict, list]:
    """Per-layer metrics and the reasons for any that the run could not give.

    reported_ops holds, per request, the ops of each factor call's JSON
    (None for other commands); verify_s the checker's time per certificate.
    The ``count.*`` metrics are exact sums over the first `prefix` requests.
    """
    spans = [dict(zip(("sid", "name", "start", "end", "parent", "req",
                       "nested", "attrs"), row)) for row in dump["spans"]]
    reqs = dump["requests"]
    n = len(reqs) or 1
    by_id = {s["sid"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s, minus_nested=True):
        kids = [(c["start"], c["end"]) for c in children.get(s["sid"], [])]
        own = dur(s) - _union_length(kids)
        return own - s["nested"] if minus_nested else own

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s["attrs"].get(key, 0) if key else dur(s))
                   for s in named(name))

    def counter(name, field):
        return sum(r["counters"].get(name, (0, 0.0))[field] for r in reqs)

    m = {}
    absent = []

    # cli
    mains = named("cli.main")
    factor_mains = [s for s in mains if s["attrs"].get("command") == "factor"]
    m["cli.self_s"] = sum(self_time(s, False) for s in mains) / n
    stages = [len({c["name"] for c in children.get(s["sid"], [])
                   if c["name"] in ENGINES}) for s in factor_mains]
    m["cli.stages_per_request"] = _ratio(sum(stages), len(stages))
    observed = sum(c["attrs"].get("ops", 0) for s in factor_mains
                   for c in children.get(s["sid"], []) if c["name"] in ENGINES)
    reported = sum(ops for per_req in reported_ops for ops in per_req
                   if ops is not None)
    m["cli.ops_reported_ratio"] = _ratio(reported, observed)
    if not factor_mains:
        absent.append("cli.stages_per_request, cli.ops_reported_ratio: "
                      "no factor requests in this workload")

    # model
    m["model.encode_s"] = (counter("model.result_to_dict", 1)
                           + counter("model.report_to_dict", 1)) / n
    m["model.verify_s"] = statistics.mean(verify_s) if verify_s else 0.0
    if not verify_s:
        absent.append("model.verify_s: no certificate in this workload")

    # arith
    for fn in ("is_probable_prime", "small_primes"):
        m[f"arith.{fn}.calls"] = counter(f"arith.{fn}", 0) / n
        m[f"arith.{fn}.s"] = counter(f"arith.{fn}", 1) / n
    m["arith.pollard_pm1.s"] = total("arith.pollard_pm1") / n
    m["arith.perfect_square.calls"] = counter("arith.perfect_square", 0) / n

    # expansions
    values = counter("expansions.values", 0)
    enum_s = counter("expansions.values", 1)
    m["expansions.values"] = values / n
    m["expansions.enum_s"] = enum_s / n
    m["expansions.values_per_s"] = _ratio(values, enum_s)
    m["expansions.first_value_s"] = max(
        (r["level_wait_max"] for r in reqs), default=0.0)

    # fermat
    classic = named("fermat.classic_fermat")
    xfermat = named("fermat.extended_fermat_sparse")
    m["fermat.classic.s"] = total("fermat.classic_fermat") / n
    m["fermat.classic.ops"] = total("fermat.classic_fermat", "ops") / n
    m["fermat.xfermat.s"] = total("fermat.extended_fermat_sparse") / n
    m["fermat.xfermat.self_s"] = sum(self_time(s) for s in xfermat) / n
    m["fermat.xfermat.ops"] = total("fermat.extended_fermat_sparse", "ops") / n
    scan_s = sum(self_time(s) for s in classic + xfermat)
    m["fermat.probes_per_s"] = _ratio(
        sum(s["attrs"].get("ops", 0) for s in classic + xfermat), scan_s)
    m["fermat.bsgs.s"] = total("fermat.bsgs_fermat") / n
    m["fermat.bsgs.ops"] = total("fermat.bsgs_fermat", "ops") / n

    # sparse_diff
    sd = named("sparse_diff.sparse_difference_factor")
    sd_self = sum(self_time(s) for s in sd)
    sd_ops = total("sparse_diff.sparse_difference_factor", "ops")
    m["sparse_diff.s"] = total("sparse_diff.sparse_difference_factor") / n
    m["sparse_diff.self_s"] = sd_self / n
    m["sparse_diff.ops"] = sd_ops / n
    m["sparse_diff.ops_per_s"] = _ratio(sd_ops, sd_self)

    # sparse_exp
    se = named("sparse_exp.sparse_exponent_factor")
    m["sparse_exp.s"] = total("sparse_exp.sparse_exponent_factor") / n
    m["sparse_exp.ops"] = total("sparse_exp.sparse_exponent_factor", "ops") / n
    m["sparse_exp.step_us_p50"] = dump["step_us_p50"]
    growth = [s["attrs"]["step_growth"] for s in se
              if "step_growth" in s["attrs"]]
    m["sparse_exp.step_growth"] = statistics.median(growth) if growth else 0.0
    if not growth:
        absent.append("sparse_exp.step_growth: no grid call ran 100 steps")

    # weakset
    audits = named("weakset.audit")
    blind = [s for s in audits if s["attrs"].get("blind")]
    known_top = [s for s in audits if not s["attrs"].get("blind")
                 and by_id.get(s["parent"], {}).get("name") == "cli.main"]
    gens = named("weakset.generate_weak")
    emitted = sum(s["attrs"].get("emitted", 0) for s in gens)
    audited = sum(1 for g in gens for c in children.get(g["sid"], [])
                  if c["name"] == "weakset.audit")
    m["weakset.generate.s"] = total("weakset.generate_weak") / n
    m["weakset.generate.accept_ratio"] = _ratio(emitted, audited)
    m["weakset.audit_known.s"] = sum(dur(s) for s in known_top) / n
    m["weakset.audit_blind.s"] = sum(dur(s) for s in blind) / n
    m["weakset.audit_blind.self_s"] = sum(self_time(s) for s in blind) / n
    m["weakset.audit_blind.detect_ratio"] = _ratio(
        sum(1 for s in blind if s["attrs"].get("classes")), len(blind))
    if not blind:
        absent.append("weakset.audit_blind.*: no blind audit in this workload")
    if not gens:
        absent.append("weakset.generate.*: no generate request in this workload")

    # property shares
    m["share.cold_level"] = sum(1 for r in reqs if r["cold"]) / n
    m["share.sparse_exp_fallthrough"] = _ratio(
        sum(1 for s in factor_mains
            if any(c["name"] == "sparse_exp.sparse_exponent_factor"
                   for c in children.get(s["sid"], []))),
        len(factor_mains))

    # deterministic counters over the fixed prefix of requests
    head = [s for s in spans if s["req"] is not None and s["req"] < prefix]
    for engine in ENGINES:
        m[f"count.ops.{engine.split('.', 1)[1]}"] = sum(
            s["attrs"].get("ops", 0) for s in head if s["name"] == engine)
    m["count.stream_values"] = sum(
        r["counters"].get("expansions.values", (0, 0))[0] for r in reqs[:prefix])
    m["count.grid_steps"] = sum(
        r["counters"].get("sparse_exp.exponent_step", (0, 0))[0]
        for r in reqs[:prefix])
    m["count.ops_reported"] = sum(ops for per_req in reported_ops[:prefix]
                                  for ops in per_req if ops is not None)
    m["count.prime_tests"] = sum(
        r["counters"].get("arith.is_probable_prime", (0, 0))[0]
        for r in reqs[:prefix])
    m["count.generate_audits"] = sum(
        1 for g in gens if g["req"] < prefix
        for c in children.get(g["sid"], []) if c["name"] == "weakset.audit")
    return m, absent
