"""Command line front end.

Subcommands: eval (print sequence values), bounds (the sandwich at 2, 4,
..., N from certified points), refine (doubling loop to a target ratio),
oracle (tree enumeration cross-checks), rate (the closed-form rate).  Exit
codes: 0 success, 1 a check failed or the reader closed stdout early (as
``| head`` does), 2 usage or input error, 3 resource budget exceeded.
Each subcommand imports the modules it runs, so bounds, trees and numpy
load only for the subcommands that use them, and json, csv and logging
only for the output and the logging that use them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from . import DEFAULT_EPSILON, DEFAULT_MAX_N
from .engine import MemoryBudgetError, SequenceTable
from .recurrence import Op, RecurrenceSpec, SpecError, parse_spec, parse_spec_json
from .scalars import exp_ln, round12

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CACHE_DIR_ENV = "FOLDRATE_CACHE_DIR"


class _UsageError(Exception):
    """Config problem detected after argparse: maps to exit code 2."""


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value
    return parse


_nonneg_int = _int_at_least(0, "a nonnegative integer")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {value}")
    return value


def _load_spec(args) -> RecurrenceSpec:
    if getattr(args, "spec_text", None) is not None:
        return parse_spec(args.spec_text)
    path = args.spec
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read spec file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"spec file {path!r} is not UTF-8 text "
                          f"(byte {exc.start}: {exc.reason})") from None
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_spec_json(text)
    return parse_spec(text)


def _resolve_cache(path: str) -> str:
    base = os.environ.get(CACHE_DIR_ENV)
    if base and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(base, path)
    return path


def _obtain_table(spec: RecurrenceSpec, args, n: int) -> SequenceTable:
    """eval's table: built, or restored, reaching at least n; the cache,
    if one is used, is written when it is new or the table had to grow."""
    cache = args.cache
    if cache:
        # loaded here, not at start-up, which runs without a cache more often
        from .cache import CacheError, load_cache, save_cache

        cache = _resolve_cache(cache)
        cached = os.path.exists(cache)
        if cached:
            try:
                table = load_cache(cache, spec)
            except OSError as exc:
                raise _UsageError(f"cannot read cache file {cache!r}: {exc.strerror}") from None
            except CacheError as exc:
                raise _UsageError(str(exc)) from None
            if table.domain_name != args.domain:
                raise _UsageError(
                    f"cache {cache!r} holds {'an' if table.domain_name == 'exact' else 'a'} "
                    f"{table.domain_name}-domain table "
                    f"but --domain {args.domain} was requested"
                )
        else:
            table = SequenceTable(spec, domain=args.domain)
        if cached and table.n >= n:
            return table
        table.extend(n)
        try:
            save_cache(table, cache)
        except OSError as exc:
            raise _UsageError(f"cannot write cache file {cache!r}: {exc.strerror}") from None
        return table
    return SequenceTable(spec, domain=args.domain).extend(n)


def _write_csv(rows) -> None:
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _print_json(doc) -> None:
    import json

    print(json.dumps(doc, indent=2))


def _print_report(report, fmt: str) -> None:
    if fmt == "csv":
        _write_csv(report.csv_rows())
    else:
        _print_json(report.to_json_dict())


# -- eval ----------------------------------------------------------------


def _print_exact(spec: RecurrenceSpec, table: SequenceTable, n: int, fmt: str) -> None:
    # s_m = t_m / D^m reduced by one gcd, as Fraction reduces it (t_m if D = 1)
    t, scale = table.scaled_values(n)
    if scale == 1:
        nums, dens = t, [1] * len(t)
    else:
        nums, dens, den = [], [], 1
        for v in t:
            g = math.gcd(v, den)
            nums.append(v // g)
            dens.append(den // g)
            den *= scale
    if fmt == "bfile":
        if any(d != 1 for d in dens):
            raise _UsageError("bfile output needs integer values; this sequence has fractions")
        for i, v in enumerate(nums):
            print(f"{i} {v}")
        return
    # str(Fraction): the numerator alone when the denominator is 1
    values = [f"{a}/{b}" if b != 1 else str(a) for a, b in zip(nums, dens)]
    if fmt == "text":
        print(" ".join(values))
    elif fmt == "json":
        _print_json({"spec": spec.render(), "domain": "exact", "n": n, "values": values})
    elif fmt == "csv":
        _write_csv([["n", "value"]] + list(enumerate(values)))


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    table = _obtain_table(spec, args, args.n)
    fmt = args.format
    if table.domain_name == "exact":
        # exact values may pass CPython's default limit of 4,300 digits on
        # str(int); it is lifted for the output alone
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _print_exact(spec, table, args.n, fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        return EXIT_OK
    # log domain
    if fmt == "bfile":
        raise _UsageError("bfile output needs the exact domain (--domain exact)")
    lns = table.ln_values()[: args.n + 1].tolist()
    # linear values that overflow a double print as inf (null in JSON)
    if fmt == "text":
        for i, ln in enumerate(lns):
            print(f"{i}\t{round12(ln)}\t{round12(exp_ln(ln))}")
    elif fmt == "json":
        _print_json({"spec": spec.render(), "domain": "log", "n": args.n,
                     "ln_values": [round12(v) for v in lns],
                     "values": [round12(exp_ln(v, None)) for v in lns]})
    elif fmt == "csv":
        _write_csv([["n", "ln_value", "value"]]
                   + [[i, round12(v), round12(exp_ln(v))] for i, v in enumerate(lns)])
    return EXIT_OK


# -- bounds / refine -----------------------------------------------------


def cmd_bounds(args) -> int:
    from .bounds import _bounds

    spec = _load_spec(args)
    try:  # the points' range and domain guards (lagrange docstring)
        report = _bounds(spec, args.n)
    except FloatingPointError as exc:
        raise _UsageError(f"float range exceeded: {exc}") from None
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _print_report(report, args.format)
    return EXIT_OK


def cmd_refine(args) -> int:
    import logging  # refine is the one command that logs

    from .bounds import refine

    spec = _load_spec(args)
    # this call's records, at the level its -v asks for, go to the stderr
    # it runs with, as bare message lines (the default format), and only
    # there; the logger is as it was once the call returns
    log = logging.getLogger("foldrate")
    saved = log.level, log.propagate
    handler = logging.StreamHandler(sys.stderr)
    log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
    try:
        report = refine(spec, epsilon=args.epsilon, max_n=args.max_n, seconds=args.seconds)
        _print_report(report, args.format)
        if not report.converged:
            log.warning("not converged: %s (ratio %.6g)", report.reason, report.ratio)
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]
    return EXIT_OK


# -- oracle --------------------------------------------------------------


def cmd_oracle(args) -> int:
    from .trees import check_subtree_lemma, check_tree_budget, oracle_summary

    spec = _load_spec(args)
    try:
        check_tree_budget(spec, args.max_n)
    except ValueError as exc:
        raise _UsageError(f"--max-n {args.max_n}: {exc}") from None
    t, scale = SequenceTable(spec, domain="exact").extend(args.max_n).scaled_values(args.max_n)
    all_sum = all(term.op is Op.SUM for term in spec.terms)
    pure_max = len(spec.terms) == 1 and spec.terms[0].op is Op.MAX
    kind = "sum=s_n" if all_sum else "max=s_n" if pure_max else "max<=s_n<=sum"
    failed = False
    for n in range(1, args.max_n + 1):
        count, total, best = oracle_summary(spec, n)
        s_n = Fraction(t[n], scale ** n)
        value_ok = (total == s_n if all_sum else best == s_n if pure_max
                    else best <= s_n <= total)
        lemma_ok = check_subtree_lemma(spec, n)
        failed = failed or not (value_ok and lemma_ok)
        print(f"n={n} trees={count} {kind}={'ok' if value_ok else 'FAIL'} "
              f"subtree-interval={'ok' if lemma_ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- rate ----------------------------------------------------------------


def cmd_rate(args) -> int:
    from .bounds import rate_interval

    spec = _load_spec(args)
    lo, hi = rate_interval(spec)
    # printed unrounded: round12 rounds to nearest and could move them inward
    _print_json({"spec": spec.render(), "ln_lower": lo, "ln_upper": hi,
                 "lower": exp_ln(lo, None), "upper": exp_ln(hi, None)})
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldrate",
        description="Evaluate sum/max convolution recurrences and bound their growth rate.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", metavar="PATH",
                           help="recurrence file (text format, or JSON if it looks like JSON)")
        group.add_argument("--spec-text", metavar="TEXT",
                           help="inline recurrence in the text format")

    p = sub.add_parser("eval", help="compute and print s_0..s_N")
    add_spec_args(p)
    p.add_argument("--domain", choices=["exact", "log"], default="log",
                   help="value domain (default: log)")
    p.add_argument("--n", type=_nonneg_int, required=True, help="last index to compute")
    p.add_argument("--cache", metavar="PATH",
                   help=f"sequence cache file (bare names resolve under ${CACHE_DIR_ENV})")
    p.add_argument("--format", choices=["text", "json", "csv", "bfile"], default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="evaluate the growth-rate sandwich up to a length")
    add_spec_args(p)
    p.add_argument("--n", type=_int_at_least(2, "an integer >= 2"), required=True,
                   help="read the sandwich at 2, 4, 8, ... and N (>= 2), from certified points")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("refine", help="tighten the sandwich to a target ratio")
    add_spec_args(p)
    p.add_argument("--epsilon", type=_positive_float, default=DEFAULT_EPSILON,
                   help=f"stop once upper/lower <= 1 + epsilon (default {DEFAULT_EPSILON})")
    p.add_argument("--max-n", type=_int_at_least(2, "an integer >= 2"), default=DEFAULT_MAX_N,
                   help=f"length budget: the largest n evaluated (default {DEFAULT_MAX_N})")
    p.add_argument("--seconds", type=_positive_float, default=None,
                   help="wall clock budget")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("oracle", help="tree-enumeration cross-checks against the engine")
    add_spec_args(p)
    p.add_argument("--max-n", type=_nonneg_int, default=6,
                   help="check sizes 1..max_n (default 6); refused when those sizes "
                        "hold more trees than the oracle's budget")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rate", help="the growth rate in closed form, rounded outward")
    add_spec_args(p)
    p.set_defaults(func=cmd_rate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing leaves it as it is."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (_UsageError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryBudgetError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the unflushed rest to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CHECK_FAILED
    sys.exit(status)


if __name__ == "__main__":
    console_main()
