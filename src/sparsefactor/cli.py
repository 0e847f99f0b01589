"""Command-line front end: factor, generate, audit, density, bench.

Exit codes: 0 factored / success, 1 exhausted or infeasible, 2 probable
prime, 64 usage error, 66 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from . import weakset
from .arith import is_probable_prime, pollard_pm1, trial_division
from .fermat import bsgs_fermat, classic_fermat, extended_fermat_sparse
from .model import (
    FactorResult,
    GenerationError,
    LowOrderBaseError,
    STATUS_EXHAUSTED,
    STATUS_FACTORED,
    STATUS_PROBABLE_PRIME,
    SearchBudget,
    probable_prime,
    report_to_dict,
    result_to_dict,
)
from .sparse_diff import sparse_difference_factor
from .sparse_exp import cyclotomic_form_factor, germain_factor, sparse_exponent_factor

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_PROBABLE_PRIME = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

_METHODS = ("auto", "fermat", "xfermat", "bsgs", "sparsediff", "sparseexp",
            "trial", "pm1")


@dataclass
class CorpusRecord:
    n: int
    p: Optional[int] = None
    q: Optional[int] = None
    label: Optional[str] = None
    comment: Optional[str] = None

    def to_line(self) -> str:
        parts = [str(self.n)]
        if self.p is not None:
            parts += [str(self.p), str(self.q)]
        tail = []
        if self.label:
            tail.append(f"class={self.label}")
        if self.comment:
            tail.append(self.comment)
        if tail:
            parts.append("#" + " ".join(tail))
        return ",".join(parts)

    @classmethod
    def parse(cls, line: str) -> "CorpusRecord":
        body, _, comment = line.partition("#")
        fields = [f.strip() for f in body.rstrip(",").split(",") if f.strip()]
        if not fields:
            raise ValueError("empty record")
        n = int(fields[0])
        p = q = None
        if len(fields) >= 3:
            p, q = int(fields[1]), int(fields[2])
            if p * q != n:
                raise ValueError(f"stated factors do not multiply to {n}")
        elif len(fields) == 2:
            raise ValueError("records carry either N or N,p,q")
        label = None
        comment = comment.strip() or None
        if comment and comment.startswith("class="):
            label = comment.split()[0][len("class="):]
        return cls(n, p, q, label, comment)


def _parse_integer(text: str) -> int:
    text = text.strip().replace("_", "")
    n = int(text, 16) if text.lower().startswith("0x") else int(text)
    if n < 1:
        raise ValueError("need a positive integer")
    return n


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPARSEFACTOR_SEED")
    return int(env) if env else 0


def _budget_from(n: int, args) -> SearchBudget:
    overrides = {}
    if args.k is not None:
        overrides["k"] = args.k
    if args.vmax is not None:
        overrides["v_max"] = args.vmax
    if args.tmax is not None:
        overrides["t_max"] = args.tmax
    if args.budget is not None:
        overrides["op_cap"] = args.budget
    if args.multipliers is not None:
        overrides["multipliers"] = tuple(
            int(m) for m in args.multipliers.split(","))
    overrides["seed"] = _seed_from(args)
    return SearchBudget.default_for(n, **overrides)


def _search_position(cert, budget: SearchBudget) -> tuple[int, int]:
    # sparse-difference certificates carry the multiplier b; the others
    # search one stream
    w = cert.witness
    mult = budget.multipliers.index(w["b"]) if "b" in w else 0
    return mult, w.get("index", 0)


def _fan_out(engine, n: int, budget: SearchBudget, workers: int) -> FactorResult:
    """Stride-partition the sparse stream across threads.

    Each partition is pure and runs to completion; the reduction keeps the
    success earliest in the engine's search order (multiplier position,
    then stream index), so any worker count reproduces the single-threaded
    certificate.
    """
    if workers <= 1:
        return engine(n, budget, None)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(engine, n, budget, (w, workers))
                   for w in range(workers)]
        results = [f.result() for f in futures]
    hits = [r for r in results if r.factored]
    if hits:
        return min(hits, key=lambda r: _search_position(r.certificate, budget))
    ops = sum(r.ops for r in results)
    for r in results:
        if r.status != STATUS_EXHAUSTED:
            return r
    return FactorResult(STATUS_EXHAUSTED, None, None, ops)


def _bsgs_with_retries(n: int, seed: int) -> FactorResult:
    import random
    rng = random.Random(seed)
    base = 2
    for _ in range(6):
        try:
            return bsgs_fermat(n, base, balanced_hint=True)
        except LowOrderBaseError:
            base = rng.randrange(2, n - 1)
    raise LowOrderBaseError("low-order base, rechoose T")


def _auto_cascade(n: int, budget: SearchBudget, args) -> FactorResult:
    if is_probable_prime(n, budget.seed):
        return probable_prime()
    stage_cap = min(budget.op_cap, 250_000)
    quick = SearchBudget(k=min(budget.k, 3), v_max=budget.v_max,
                         t_max=min(budget.t_max, 4096),
                         multipliers=budget.multipliers, op_cap=stage_cap,
                         seed=budget.seed)
    result = trial_division(n, 10_000)
    if result.factored:
        return result
    result = classic_fermat(n, min(budget.t_max, 1 << 14))
    if result.factored:
        return result
    result = sparse_difference_factor(n, quick)
    if result.factored:
        return result
    result = _fan_out(extended_fermat_sparse, n, quick, args.workers)
    if result.factored:
        return result
    if n < 1 << 56:
        try:
            result = _bsgs_with_retries(n, budget.seed)
            if result.factored:
                return result
        except LowOrderBaseError:
            pass
    return sparse_exponent_factor(n, quick, trials=args.trials or 4,
                                  seed=budget.seed)


def _parse_form(text: str) -> tuple[str, int]:
    kind, _, param = text.partition(":")
    if kind not in ("mersenne", "fermat") or not param.isdigit():
        raise ValueError(f"bad form {text!r}; expected mersenne:R or fermat:N")
    return kind, int(param)


def cmd_factor(args) -> int:
    try:
        n = _parse_integer(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    budget = _budget_from(n, args)
    started = time.perf_counter()
    if n < 3:
        result = FactorResult("TrivialInput", None, None, 0)
    elif args.method == "auto":
        result = _auto_cascade(n, budget, args)
    elif args.method == "trial":
        result = trial_division(n, args.budget or 10 ** 6)
    elif args.method == "fermat":
        result = classic_fermat(n, args.tmax or budget.t_max)
    elif args.method == "xfermat":
        result = _fan_out(extended_fermat_sparse, n, budget, args.workers)
    elif args.method == "sparsediff":
        result = _fan_out(sparse_difference_factor, n, budget, args.workers)
    elif args.method == "bsgs":
        try:
            result = _bsgs_with_retries(n, budget.seed)
        except LowOrderBaseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EXHAUSTED
    elif args.method == "sparseexp":
        if args.form:
            try:
                form = _parse_form(args.form)
                result = cyclotomic_form_factor(n, form, budget)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            result = sparse_exponent_factor(n, budget,
                                            trials=args.trials or 8,
                                            seed=budget.seed)
    elif args.method == "pm1":
        result = pollard_pm1(n, args.budget or 100_000)
    else:
        print(f"error: unknown method {args.method}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started

    if args.json:
        payload = result_to_dict(result)
        payload["n"] = str(n)
        payload["elapsed_s"] = round(elapsed, 6)
        print(json.dumps(payload, sort_keys=True))
    elif result.factored:
        p, q = result.factors
        print(f"{n} = {p} * {q}  [{result.certificate.method}, "
              f"ops={result.ops}, {elapsed:.3f}s]")
    else:
        print(f"{n}: {result.status} after {result.ops} ops ({elapsed:.3f}s)")

    if result.status == STATUS_FACTORED:
        return EXIT_OK
    if result.status == STATUS_PROBABLE_PRIME:
        return EXIT_PROBABLE_PRIME
    return EXIT_EXHAUSTED


def cmd_generate(args) -> int:
    spec = weakset.WeakClassSpec(class_id=args.weak_class, k=args.k or 3,
                                 v_max=args.vmax)
    try:
        rows = weakset.generate_weak(spec, args.bits, args.count,
                                     _seed_from(args))
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    lines = []
    for n, p, q, report in rows:
        if args.format == "jsonl":
            payload = {"n": str(n), "p": str(p), "q": str(q),
                       "report": report_to_dict(report)}
            lines.append(json.dumps(payload, sort_keys=True))
        else:
            lines.append(CorpusRecord(n, p, q, args.weak_class).to_line())
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_corpus(path: str) -> list[CorpusRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        records = []
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            records.append(CorpusRecord.parse(line))
        return records


def cmd_audit(args) -> int:
    try:
        records = _read_corpus(args.infile)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    for rec in records:
        budget = SearchBudget.default_for(rec.n, seed=_seed_from(args),
                                          **({"k": args.k} if args.k else {}))
        factors = (rec.p, rec.q) if rec.p is not None else None
        report = weakset.audit(rec.n, factors, budget)
        if args.json:
            payload = report_to_dict(report)
            payload["n"] = str(rec.n)
            print(json.dumps(payload, sort_keys=True))
        else:
            names = ",".join(sorted(report.classes)) or "-"
            print(f"{rec.n}: classes [{names}]")
    return EXIT_OK


def cmd_density(args) -> int:
    xmax = args.xmax
    points = []
    x = 10_000
    while x <= xmax:
        points.append(x)
        x *= 10
    if not points:
        points = [xmax]
    if args.kind == "fermat":
        print(f"{'X':>12} {'F(X)':>10} {'B(X)':>10} {'F/B':>12}")
        for x in points:
            f, b, ratio = weakset.fermat_count(x)
            print(f"{x:>12} {f:>10} {b:>10} {ratio:>12.6f}")
    else:
        print(f"{'x':>12} {'R(x)':>10} {'R/x':>10}")
        for x in points:
            r = weakset.romanoff_count(x)
            print(f"{x:>12} {r:>10} {r / x:>10.4f}")
    return EXIT_OK


def _bench_row(label, n, fn):
    started = time.perf_counter()
    try:
        result = fn()
        status, ops = result.status, result.ops
    except (ValueError, LowOrderBaseError) as exc:
        status, ops = f"error({exc})", 0
    ms = (time.perf_counter() - started) * 1000
    print(f"{label:>12} {n:>22} {status:>14} {ops:>10} {ms:>9.2f}ms")


def cmd_bench(args) -> int:
    seed = _seed_from(args)
    if args.suite == "example6":
        n = 448316072600119
        budget = SearchBudget(k=5, v_max=12, t_max=1642, seed=seed)
        result = extended_fermat_sparse(n, budget)
        ok = (result.factored and result.factors == (15402707, 29106317)
              and result.certificate.witness["a"] == 1724
              and result.certificate.witness["t"] == 339)
        print(f"reference semiprime: status={result.status} "
              f"factors={result.factors} "
              f"a={result.certificate.witness.get('a') if result.certificate else None} "
              f"t={result.certificate.witness.get('t') if result.certificate else None} "
              f"ops={result.ops}")
        return EXIT_OK if ok else EXIT_EXHAUSTED

    if args.suite == "f5":
        n = 4294967297
        budget = SearchBudget(k=2, v_max=6, t_max=16, seed=seed)
        result = cyclotomic_form_factor(n, ("fermat", 5), budget)
        steps = result.certificate.witness.get("steps") if result.certificate else None
        print(f"F5: status={result.status} factors={result.factors} "
              f"grid_steps={steps}")
        return EXIT_OK if result.factored and steps is not None and steps <= 3 \
            else EXIT_EXHAUSTED

    if args.suite == "germain":
        ok = True
        for n in (253, 737, 1081, 55):
            result = germain_factor(n, 8)
            print(f"germain {n}: {result.status} factors={result.factors} "
                  f"k={result.certificate.witness.get('multiple') if result.certificate else None}")
            ok = ok and result.factored
        return EXIT_OK if ok else EXIT_EXHAUSTED

    if args.suite == "density":
        print("-- fermat window pairs --")
        for x in (10_000, 100_000, 1_000_000):
            f, b, ratio = weakset.fermat_count(x)
            print(f"X={x}: F={f} B={b} ratio={ratio:.6f}")
        print("-- prime + power-of-two coverage --")
        for x in (10_000, 100_000, 1_000_000):
            r = weakset.romanoff_count(x)
            print(f"x={x}: R={r} R/x={r / x:.4f}")
        return EXIT_OK

    # desk suite: every engine across a few known composites
    print(f"{'engine':>12} {'N':>22} {'status':>14} {'ops':>10} {'time':>11}")
    for n in (10403, 2881, 15049, 253, 2047):
        budget = SearchBudget.default_for(n, seed=seed)
        _bench_row("trial", n, lambda n=n: trial_division(n, 10 ** 4))
        _bench_row("fermat", n, lambda n=n: classic_fermat(n, 10 ** 5))
        _bench_row("xfermat", n, lambda n=n, b=budget: extended_fermat_sparse(n, b))
        _bench_row("sparsediff", n, lambda n=n, b=budget: sparse_difference_factor(n, b))
        _bench_row("bsgs", n, lambda n=n: bsgs_fermat(n, 2))
        _bench_row("sparseexp", n, lambda n=n, b=budget: sparse_exponent_factor(n, b, seed=seed))
        _bench_row("pm1", n, lambda n=n: pollard_pm1(n, 10 ** 4))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefactor",
        description="factor balanced semiprimes with sparse additive structure")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        p.add_argument("--k", type=int, default=None,
                       help="max sparse weight (nonzero signed digits)")
        p.add_argument("--vmax", type=int, default=None,
                       help="max digit position in bits")
        p.add_argument("--tmax", type=int, default=None,
                       help="max residual offset for the Fermat scans")
        p.add_argument("--budget", type=int, default=None,
                       help="hard cap on elementary search steps")
        p.add_argument("--multipliers", default=None,
                       help="comma-separated multiplier list, e.g. 1,2,4,8")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to SPARSEFACTOR_SEED)")

    p = sub.add_parser("factor", help="factor one integer")
    p.add_argument("n", help="decimal or 0x-prefixed hex integer")
    p.add_argument("--method", choices=_METHODS, default="auto")
    p.add_argument("--form", default=None,
                   help="structured input shape: mersenne:R or fermat:N")
    p.add_argument("--trials", type=int, default=None,
                   help="random bases for the exponent method")
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    add_budget_flags(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("generate", help="emit weak balanced semiprimes")
    p.add_argument("--class", dest="weak_class", required=True,
                   choices=sorted("abcdfg"))
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    add_budget_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit", help="classify records from a corpus file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    add_budget_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("density", help="counting-function tables")
    p.add_argument("--kind", choices=("fermat", "romanoff"), required=True)
    p.add_argument("--xmax", type=int, default=1_000_000)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("bench", help="timed engine comparisons")
    p.add_argument("--suite", choices=("desk", "example6", "f5", "germain",
                                       "density"), default="desk")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
