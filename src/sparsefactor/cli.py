"""Command-line front end: factor, generate, audit, density.

Exit codes: 0 factored / success, 1 exhausted or infeasible, 2 probable
prime, 64 usage error, 66 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

from . import weakset
from .arith import is_probable_prime, pollard_pm1, preamble, trial_division
from .fermat import (BSGS_LIMIT, bsgs_fermat, classic_fermat,
                     extended_fermat_sparse)
from .model import (
    FactorResult,
    GenerationError,
    LowOrderBaseError,
    STATUS_FACTORED,
    STATUS_PROBABLE_PRIME,
    SearchBudget,
    exhausted,
    report_to_dict,
    result_to_dict,
)
from .sparse_diff import sparse_difference_factor
from .sparse_exp import cyclotomic_form_factor, sparse_exponent_factor

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_PROBABLE_PRIME = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

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
        if len(fields) not in (1, 3):
            raise ValueError("records carry either N or N,p,q")
        n, *pq = map(int, fields)
        weakset.check_audit_input(n, tuple(pq) or None)
        if not all(map(is_probable_prime, pq)):
            raise ValueError("stated factors must be prime")
        p, q = pq or (None, None)
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


def _bsgs_with_retries(n: int, seed: int,
                       op_cap: Optional[int] = None) -> FactorResult:
    """BSGS from base 2, redrawing a low-order base; Exhausted after six."""
    import random
    rng = random.Random(seed)
    base = 2
    for _ in range(6):
        try:
            return bsgs_fermat(n, base, op_cap=op_cap)
        except LowOrderBaseError:
            base = rng.randrange(2, n - 1)
    return exhausted(0)


def _auto_cascade(n: int, budget: SearchBudget, args) -> FactorResult:
    """Fixed trial and classic screens, then the engines at a small budget."""
    quick = replace(budget, k=min(budget.k, 3), t_max=min(budget.t_max, 4096),
                    op_cap=min(budget.op_cap, 250_000))
    result = trial_division(n, 10_000)
    if result.factored:
        return result
    result = classic_fermat(n, min(budget.t_max, 1 << 14))
    if result.factored:
        return result
    result = sparse_difference_factor(n, quick)
    if result.factored:
        return result
    result = extended_fermat_sparse(n, quick)
    if result.factored:
        return result
    if n < BSGS_LIMIT:
        result = _bsgs_with_retries(n, budget.seed)
        if result.factored:
            return result
    trials = 4 if args.trials is None else args.trials
    return sparse_exponent_factor(n, quick, trials=trials,
                                  seed=budget.seed)


def _sparse_exp(n: int, budget: SearchBudget, args) -> FactorResult:
    if args.form:
        kind, _, param = args.form.partition(":")
        if kind not in ("mersenne", "fermat") or not param.isdigit():
            raise ValueError(
                f"bad form {args.form!r}; expected mersenne:R or fermat:N")
        return cyclotomic_form_factor(n, (kind, int(param)), budget)
    trials = 8 if args.trials is None else args.trials
    return sparse_exponent_factor(n, budget, trials=trials, seed=budget.seed)


# Optional factor flags a method may or may not read; --budget, --seed and
# the ignored --workers are taken by every method.
_METHOD_FLAGS = ("k", "vmax", "tmax", "multipliers", "form", "trials")

# --method -> (run(n, budget, args), the flags of _METHOD_FLAGS it reads).
# Each run looks its engine up by name when called, so a rebound module
# attribute (a tracer's wrapper, say) is the one that runs.
ENGINES = {
    "auto": (_auto_cascade, ("k", "vmax", "tmax", "multipliers", "trials")),
    "fermat": (lambda n, b, _: classic_fermat(n, min(b.t_max, b.op_cap)),
               ("tmax",)),
    "xfermat": (lambda n, b, _: extended_fermat_sparse(n, b),
                ("k", "vmax", "tmax")),
    "bsgs": (lambda n, b, _: _bsgs_with_retries(n, b.seed, b.op_cap), ()),
    "sparsediff": (lambda n, b, _: sparse_difference_factor(n, b),
                   ("k", "vmax", "multipliers")),
    "sparseexp": (_sparse_exp, ("k", "vmax", "form", "trials")),
    # at most --budget divisors 2, 3, 5, ..., 2 * budget - 1
    "trial": (lambda n, b, args: trial_division(
        n, 2 * (args.budget or 500_000) - 1), ()),
    # bound 2^16 at every size: class a's bound, scaled down for a toy N,
    # leaves too few stages to split one
    "pm1": (lambda n, b, _: pollard_pm1(n, 1 << 16, op_cap=b.op_cap), ()),
}


def _solve(n: int, args) -> FactorResult:
    run, reads = ENGINES[args.method]
    for flag in _METHOD_FLAGS:
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag} is not read by --method {args.method}")
    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be >= 1")
    budget = _budget_from(n, args)
    early = preamble(n, budget.seed)
    return early if early is not None else run(n, budget, args)


def cmd_factor(args) -> int:
    n = _parse_integer(args.n)
    started = time.perf_counter()
    result = _solve(n, args)
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


def _check_out(path: str) -> None:
    """Raise, before any record is generated, the ValueError that writing
    path would end in: open it for append, which truncates nothing, and
    remove the file again if the open made it."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def cmd_generate(args) -> int:
    if args.out is not None:
        _check_out(args.out)
    spec = weakset.WeakClassSpec(class_id=args.weak_class,
                                 k=3 if args.k is None else args.k,
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
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}")
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
        overrides = {} if args.k is None else {"k": args.k}
        budget = SearchBudget.default_for(rec.n, seed=_seed_from(args),
                                          **overrides)
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
    if xmax < 1:
        raise ValueError("--xmax must be >= 1")
    points = []
    x = 10_000
    while x <= xmax:
        points.append(x)
        x *= 10
    if not points:
        points = [xmax]
    # every row is counted before the header is printed, so an --xmax the
    # counting function rejects leaves nothing on stdout
    if args.kind == "fermat":
        rows = [(x, *weakset.fermat_count(x)) for x in points]
        print(f"{'X':>12} {'F(X)':>10} {'B(X)':>10} {'F/B':>12}")
        for x, f, b, ratio in rows:
            print(f"{x:>12} {f:>10} {b:>10} {ratio:>12.6f}")
    else:
        rows = [(x, weakset.romanoff_count(x)) for x in points]
        print(f"{'x':>12} {'R(x)':>10} {'R/x':>10}")
        for x, r in rows:
            print(f"{x:>12} {r:>10} {r / x:>10.4f}")
    return EXIT_OK


# Search flags; each subcommand takes the ones it reads.
_BUDGET_FLAGS = {
    "--k": dict(type=int, help="max sparse weight (nonzero signed digits)"),
    "--vmax": dict(type=int, help="max digit position in bits"),
    "--tmax": dict(type=int, help="max residual offset for the Fermat scans"),
    "--budget": dict(type=int, help="hard cap on elementary search steps"),
    "--multipliers": dict(
        help="comma-separated multiplier list, e.g. 1,2,4,8"),
    "--seed": dict(type=int,
                   help="RNG seed (falls back to SPARSEFACTOR_SEED)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="sparsefactor",
        description="factor balanced semiprimes with sparse additive structure")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_BUDGET_FLAGS[flag])

    p = sub.add_parser("factor", help="factor one integer")
    p.add_argument("n", help="decimal or 0x-prefixed hex integer")
    p.add_argument("--method", choices=ENGINES, default="auto")
    p.add_argument("--form", default=None,
                   help="structured input shape: mersenne:R or fermat:N")
    p.add_argument("--trials", type=int, default=None,
                   help="random bases for the exponent method")
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored: the search runs in one thread")
    add_budget_flags(p, *_BUDGET_FLAGS)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("generate", help="emit weak balanced semiprimes")
    p.add_argument("--class", dest="weak_class", required=True,
                   choices=sorted(weakset.CLASSES))
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    add_budget_flags(p, "--k", "--vmax", "--seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit", help="classify records from a corpus file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    add_budget_flags(p, "--k", "--seed")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("density", help="counting-function tables")
    p.add_argument("--kind", choices=("fermat", "romanoff"), required=True)
    p.add_argument("--xmax", type=int, default=1_000_000)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        # out-of-range arguments the parser cannot see: a budget field,
        # an input the chosen engine does not take, a count of zero
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
