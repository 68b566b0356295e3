"""Command line front end.

Subcommands: eval (print sequence values), bounds (per-index sandwich and
best envelope), refine (doubling loop to a target ratio), oracle (tree
enumeration cross-checks), known (fixtures with known rates), bench
(extend timing).  Exit codes: 0 success, 1 a check failed, 2 usage or
input error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time

from .bounds import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_N,
    evaluate_bounds,
    known_rate_check,
)
from .engine import (
    CacheError,
    MemoryBudgetError,
    SequenceTable,
    load_cache,
    save_cache,
)
from .recurrence import RecurrenceSpec, SpecError, parse_spec, parse_spec_json
from .scalars import exp_ln, round12
from .trees import DEFAULT_SIZE_CAP, check_subtree_lemma, oracle_summary

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CACHE_DIR_ENV = "FOLDRATE_CACHE_DIR"

log = logging.getLogger(__name__)


class _UsageError(Exception):
    """Config problem detected after argparse: maps to exit code 2."""


def _nonneg_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _load_spec(args) -> RecurrenceSpec:
    if getattr(args, "spec_text", None) is not None:
        return parse_spec(args.spec_text)
    path = args.spec
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_spec_json(text)
    return parse_spec(text)


def _resolve_cache(path: str) -> str:
    base = os.environ.get(CACHE_DIR_ENV)
    if base and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(base, path)
    return path


def _obtain_table(spec: RecurrenceSpec, args, n: int) -> SequenceTable:
    """Build or restore a table, extend it to n, update the cache if used."""
    cache = getattr(args, "cache", None)
    if cache:
        cache = _resolve_cache(cache)
        if os.path.exists(cache):
            table = load_cache(cache, spec)
            if table.domain_name != args.domain:
                raise _UsageError(
                    f"cache {cache!r} holds a {table.domain_name}-domain table "
                    f"but --domain {args.domain} was requested"
                )
        else:
            table = SequenceTable(spec, domain=args.domain)
        table.extend(n)
        save_cache(table, cache)
        return table
    return SequenceTable(spec, domain=args.domain).extend(n)


def _fraction_text(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write_csv(rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


# -- eval ----------------------------------------------------------------


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    table = _obtain_table(spec, args, args.n)
    fmt = args.format
    if table.domain_name == "exact":
        values = [table.value(n).value for n in range(args.n + 1)]
        if fmt == "text":
            print(" ".join(_fraction_text(v) for v in values))
        elif fmt == "json":
            print(json.dumps(
                {
                    "spec": spec.render(),
                    "domain": "exact",
                    "n": args.n,
                    "values": [_fraction_text(v) for v in values],
                },
                indent=2,
            ))
        elif fmt == "csv":
            _write_csv([["n", "value"]] + [[i, _fraction_text(v)] for i, v in enumerate(values)])
        elif fmt == "bfile":
            if any(v.denominator != 1 for v in values):
                raise _UsageError("bfile output needs integer values; this sequence has fractions")
            for i, v in enumerate(values):
                print(f"{i} {v.numerator}")
        return EXIT_OK
    # log domain
    if fmt == "bfile":
        raise _UsageError("bfile output needs the exact domain (--domain exact)")
    lns = [table.value_ln(n) for n in range(args.n + 1)]
    # linear values that overflow a double print as inf (null in JSON)
    if fmt == "text":
        for i, ln in enumerate(lns):
            print(f"{i}\t{round12(ln)}\t{round12(exp_ln(ln))}")
    elif fmt == "json":
        print(json.dumps(
            {
                "spec": spec.render(),
                "domain": "log",
                "n": args.n,
                "ln_values": [round12(v) for v in lns],
                "values": [round12(exp_ln(v, None)) for v in lns],
            },
            indent=2,
        ))
    elif fmt == "csv":
        _write_csv([["n", "ln_value", "value"]]
                   + [[i, round12(v), round12(exp_ln(v))] for i, v in enumerate(lns)])
    return EXIT_OK


# -- bounds / refine -----------------------------------------------------


def cmd_bounds(args) -> int:
    if args.n < 2:
        raise _UsageError("bounds need --n at least 2")
    spec = _load_spec(args)
    table = _obtain_table(spec, args, args.n)
    report = evaluate_bounds(table)
    if args.format == "csv":
        _write_csv(report.csv_rows())
    else:
        print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def cmd_refine(args) -> int:
    from .bounds import refine  # local import keeps startup light

    spec = _load_spec(args)
    report = refine(spec, epsilon=args.epsilon, max_n=args.max_n, seconds=args.seconds)
    if args.format == "csv":
        _write_csv(report.csv_rows())
    else:
        print(json.dumps(report.to_json_dict(), indent=2))
    if not report.converged:
        log.warning("not converged: %s (ratio %.6g)", report.reason, report.ratio)
    return EXIT_OK


# -- oracle --------------------------------------------------------------


def cmd_oracle(args) -> int:
    if args.max_n > args.size_cap:
        raise _UsageError(
            f"--max-n {args.max_n} exceeds --size-cap {args.size_cap}"
        )
    spec = _load_spec(args)
    table = SequenceTable(spec, domain="exact").extend(args.max_n)
    all_sum = all(t.op.value == "sum" for t in spec.terms)
    pure_max = len(spec.terms) == 1 and spec.terms[0].op.value == "max"
    failed = False
    for n in range(1, args.max_n + 1):
        count, total, best = oracle_summary(spec, n, size_cap=args.size_cap)
        s_n = table.value(n).value
        if all_sum:
            value_ok = total == s_n
            kind = "sum=s_n"
        elif pure_max:
            value_ok = best == s_n
            kind = "max=s_n"
        else:
            value_ok = best <= s_n <= total
            kind = "max<=s_n<=sum"
        lemma_ok = check_subtree_lemma(spec, n, size_cap=args.size_cap)
        ok = value_ok and lemma_ok
        failed = failed or not ok
        print(f"n={n} trees={count} {kind}={'ok' if value_ok else 'FAIL'} "
              f"subtree-interval={'ok' if lemma_ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- known ---------------------------------------------------------------


def cmd_known(args) -> int:
    name = args.name
    k = None
    if name.startswith("kfold:"):
        name, _, ktext = name.partition(":")
        try:
            k = int(ktext, 10)
        except ValueError:
            raise _UsageError(f"bad kfold argument {ktext!r}; use e.g. kfold:3") from None
    try:
        result = known_rate_check(name, k=k, max_n=args.max_n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    lo = exp_ln(result.report.best_ln_lower)
    hi = exp_ln(result.report.best_ln_upper)
    verdict = "PASS" if result.contained else "FAIL"
    print(f"{result.name}: rate {round12(result.rate)} inside "
          f"[{round12(lo)}, {round12(hi)}]: {verdict}")
    if result.ratio_ok:
        print(f"ratio {round12(result.ratio)} <= {result.ratio_threshold}")
    else:
        print(f"WARN ratio {round12(result.ratio)} > {result.ratio_threshold}")
    return EXIT_OK if result.contained else EXIT_CHECK_FAILED


# -- bench ---------------------------------------------------------------


def _time_extend(spec: RecurrenceSpec, n: int, domain: str) -> float:
    start = time.perf_counter()
    SequenceTable(spec, domain=domain).extend(n)
    return time.perf_counter() - start


def cmd_bench(args) -> int:
    spec = _load_spec(args)
    _time_extend(spec, min(args.n, 64), args.domain)  # warm-up
    t1 = _time_extend(spec, args.n, args.domain)
    t2 = _time_extend(spec, 2 * args.n, args.domain)
    ratio = t2 / t1 if t1 > 0 else float("inf")
    exponent = math.log2(ratio) if 0 < ratio < float("inf") else float("nan")
    if args.format == "json":
        print(json.dumps(
            {
                "n": args.n,
                "seconds_n": round12(t1),
                "seconds_2n": round12(t2),
                "ratio": round12(ratio),
                "exponent": round12(exponent),
            },
            indent=2,
        ))
    else:
        print(f"extend to {args.n}: {t1:.4f}s")
        print(f"extend to {2 * args.n}: {t2:.4f}s")
        print(f"ratio {ratio:.3f} (doubling exponent {exponent:.3f})")
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldrate",
        description="Evaluate sum/max convolution recurrences and bound their growth rate.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", metavar="PATH",
                           help="recurrence file (text format, or JSON if it looks like JSON)")
        group.add_argument("--spec-text", metavar="TEXT",
                           help="inline recurrence in the text format")

    def add_domain_arg(p):
        p.add_argument("--domain", choices=["exact", "log"], default="log",
                       help="value domain (default: log)")

    p = sub.add_parser("eval", help="compute and print s_0..s_N")
    add_spec_args(p)
    add_domain_arg(p)
    p.add_argument("--n", type=_nonneg_int, required=True, help="last index to compute")
    p.add_argument("--cache", metavar="PATH",
                   help=f"sequence cache file (bare names resolve under ${CACHE_DIR_ENV})")
    p.add_argument("--format", choices=["text", "json", "csv", "bfile"], default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="evaluate the growth-rate sandwich at a length")
    add_spec_args(p)
    add_domain_arg(p)
    p.add_argument("--n", type=_nonneg_int, required=True, help="table length (>= 2)")
    p.add_argument("--cache", metavar="PATH")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("refine", help="tighten the sandwich to a target ratio")
    add_spec_args(p)
    p.add_argument("--epsilon", type=_positive_float, default=DEFAULT_EPSILON,
                   help=f"stop once upper/lower <= 1 + epsilon (default {DEFAULT_EPSILON})")
    p.add_argument("--max-n", type=_nonneg_int, default=DEFAULT_MAX_N,
                   help=f"table length budget (default {DEFAULT_MAX_N})")
    p.add_argument("--seconds", type=_positive_float, default=None,
                   help="wall clock budget")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("oracle", help="tree-enumeration cross-checks against the engine")
    add_spec_args(p)
    p.add_argument("--max-n", type=_nonneg_int, default=6,
                   help="check sizes 1..max_n (default 6)")
    p.add_argument("--size-cap", type=_nonneg_int, default=DEFAULT_SIZE_CAP,
                   help=f"enumeration size cap (default {DEFAULT_SIZE_CAP})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("known", help="check fixtures with known growth rates")
    p.add_argument("name", help="catalan, schroeder, or kfold:K")
    p.add_argument("--max-n", type=_nonneg_int, default=4096)
    p.set_defaults(func=cmd_known)

    p = sub.add_parser("bench", help="time extend at N and 2N")
    add_spec_args(p)
    add_domain_arg(p)
    p.add_argument("--n", type=_nonneg_int, default=2048)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpecError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
