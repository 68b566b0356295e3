"""Certified two-sided bounds on the growth rate lim s_n^(1/n).

Both directions come from finite prefixes of the sequence.  Writing L for
the largest arity, k* for the largest weight among arity>=2 terms and s1
for the weight sum, the lower bounds are

    lower(n)     = (1/n) * [ln k* - ln(L*(n-1)*s1) + ln s_n]        n >= 2
    sup_lower(n) = (1/n) * [ln k* + ln s_{n-1}]                     n >= 1

and the upper bound is, with alpha = 1/ln((L+1)/L) and
beta' = alpha*ln(s1*L^2/k*),

    upper(n) = (1/n) * [A*ln 3 + B(n)*ln n + ln s_n]
    A        = 18*alpha*ln 3 + 2*beta'
    B(n)     = 3*alpha*ln n + 12*alpha*ln 3 + beta'

Every lower(n), sup_lower(n) is <= the true rate and every upper(n) is >=
it, so the running max of lowers and min of uppers form a shrinking
sandwich.  refine() doubles the table length until the sandwich ratio
reaches a target or a budget runs out; an unconverged run is reported,
not raised.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import DEFAULT_MEMORY_LIMIT, MemoryBudgetError, SequenceTable
from .recurrence import GrowthConstants, RecurrenceSpec, derive_constants, parse_spec
from .scalars import exp_ln, ln_fraction, round12

__all__ = [
    "BoundsEntry",
    "BoundsReport",
    "KnownRateResult",
    "evaluate_bounds",
    "known_rate_check",
    "lower_bound_ln",
    "refine",
    "sup_lower_bound_ln",
    "upper_bound_ln",
    "upper_coefficients",
]

log = logging.getLogger(__name__)

_LN3 = math.log(3.0)

DEFAULT_EPSILON = 0.25
DEFAULT_MAX_N = 1 << 14


def _require_n(table: SequenceTable, n: int, least: int):
    if n < least:
        raise ValueError(f"bound needs n >= {least}, got {n}")
    if n > table.n:
        raise ValueError(f"table only extends to {table.n}, cannot evaluate at {n}")


def lower_bound_ln(table: SequenceTable, consts: GrowthConstants, n: int) -> float:
    """ln of the certified lower bound read off s_n; needs n >= 2."""
    _require_n(table, n, 2)
    penalty = math.log(consts.max_arity * (n - 1)) + ln_fraction(consts.s1)
    return (ln_fraction(consts.kstar) - penalty + table.value_ln(n)) / n


def sup_lower_bound_ln(table: SequenceTable, consts: GrowthConstants, n: int) -> float:
    """ln of the supremum-form lower bound (k* * s_{n-1})^(1/n); n >= 1.

    Its running max over n is nondecreasing and converges to the true
    rate from below, so it usefully sharpens lower_bound_ln.
    """
    _require_n(table, n, 1)
    return (ln_fraction(consts.kstar) + table.value_ln(n - 1)) / n


def upper_coefficients(consts: GrowthConstants, n: int) -> tuple[float, float]:
    """(A, B(n)): the exponents of 3 and of n in the upper bound."""
    a = 18.0 * consts.alpha * _LN3 + 2.0 * consts.beta_prime
    b = 3.0 * consts.alpha * math.log(n) + 12.0 * consts.alpha * _LN3 + consts.beta_prime
    return a, b


def upper_bound_ln(table: SequenceTable, consts: GrowthConstants, n: int) -> float:
    """ln of the certified upper bound read off s_n; needs n >= 2."""
    _require_n(table, n, 2)
    a, b = upper_coefficients(consts, n)
    return (a * _LN3 + b * math.log(n) + table.value_ln(n)) / n


@dataclass(frozen=True)
class BoundsEntry:
    """Sandwich evaluated at one index: ln of lower and upper bound."""

    n: int
    ln_lower: float
    ln_upper: float


@dataclass
class BoundsReport:
    """Best envelope over every evaluated index, plus the trail."""

    spec_text: str
    epsilon: float | None
    entries: list[BoundsEntry] = field(default_factory=list)
    best_ln_lower: float = float("-inf")
    best_ln_upper: float = float("inf")
    converged: bool = False
    reason: str = ""
    max_n: int = 0
    elapsed: float = 0.0

    @property
    def ratio(self) -> float:
        return exp_ln(self.best_ln_upper - self.best_ln_lower)

    def to_json_dict(self) -> dict:
        # linear values that overflow a double print as null
        return {
            "spec": self.spec_text,
            "epsilon": self.epsilon,
            "entries": [
                {
                    "n": e.n,
                    "ln_lower": round12(e.ln_lower),
                    "ln_upper": round12(e.ln_upper),
                    "lower": round12(exp_ln(e.ln_lower, None)),
                    "upper": round12(exp_ln(e.ln_upper, None)),
                }
                for e in self.entries
            ],
            "best": {
                "ln_lower": round12(self.best_ln_lower),
                "ln_upper": round12(self.best_ln_upper),
                "lower": round12(exp_ln(self.best_ln_lower, None)),
                "upper": round12(exp_ln(self.best_ln_upper, None)),
                "ratio": round12(exp_ln(self.best_ln_upper - self.best_ln_lower, None)),
            },
            "converged": self.converged,
            "reason": self.reason,
            "max_n": self.max_n,
            "elapsed_seconds": round12(self.elapsed),
        }

    def csv_rows(self) -> list[list]:
        rows = [["n", "ln_lower", "ln_upper", "lower", "upper", "ratio"]]
        for e in self.entries:
            rows.append([
                e.n,
                round12(e.ln_lower),
                round12(e.ln_upper),
                round12(exp_ln(e.ln_lower)),
                round12(exp_ln(e.ln_upper)),
                round12(exp_ln(e.ln_upper - e.ln_lower)),
            ])
        return rows


def _sup_lower_vector(lnS: np.ndarray, ln_kstar: float, lo: int, hi: int) -> float:
    """Max of sup_lower over n in [lo, hi] given the ln-value vector."""
    if hi < lo:
        return float("-inf")
    idx = np.arange(lo, hi + 1, dtype=np.float64)
    return float(((ln_kstar + lnS[lo - 1 : hi]) / idx).max())


def evaluate_bounds(table: SequenceTable, consts: GrowthConstants | None = None,
                    ns=None, epsilon: float | None = None) -> BoundsReport:
    """Evaluate the sandwich at the given indices (default: powers of two).

    The reported best lower also folds in the supremum-form bound over
    every available index, which costs O(N) and never hurts.
    """
    if consts is None:
        consts = derive_constants(table.spec)
    if table.n < 2:
        raise ValueError("need a table extended to at least n = 2")
    if ns is None:
        ns = [n for n in _powers_of_two(table.n)]
    report = BoundsReport(spec_text=table.spec.render(), epsilon=epsilon)
    ln_kstar = ln_fraction(consts.kstar)
    lnS = table.ln_values()
    for n in sorted(set(ns)):
        _require_n(table, n, 2)
        low = max(
            lower_bound_ln(table, consts, n),
            sup_lower_bound_ln(table, consts, n),
        )
        up = upper_bound_ln(table, consts, n)
        report.entries.append(BoundsEntry(n, low, up))
        report.best_ln_lower = max(report.best_ln_lower, low)
        report.best_ln_upper = min(report.best_ln_upper, up)
    report.best_ln_lower = max(
        report.best_ln_lower, _sup_lower_vector(lnS, ln_kstar, 1, table.n)
    )
    report.max_n = table.n
    if epsilon is not None:
        report.converged = report.ratio <= 1.0 + epsilon
        report.reason = "converged" if report.converged else "target not reached"
    return report


def _powers_of_two(limit: int):
    n = 2
    while n < limit:
        yield n
        n *= 2
    if limit >= 2:
        yield limit


def refine(spec: RecurrenceSpec, epsilon: float = DEFAULT_EPSILON,
           max_n: int = DEFAULT_MAX_N, seconds: float | None = None,
           domain: str = "log",
           memory_limit: int = DEFAULT_MEMORY_LIMIT) -> BoundsReport:
    """Double the table until the sandwich ratio is <= 1 + epsilon.

    Evaluation happens at each table length in the doubling schedule
    2, 4, 8, ..., max_n.  Stops on convergence or when the max_n, wall
    clock or memory budget runs out; the latter yields converged=False in
    the report, with the budget named in ``reason``, rather than an
    exception.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    start = time.perf_counter()
    consts = derive_constants(spec)
    table = SequenceTable(spec, domain=domain, memory_limit=memory_limit)
    report = BoundsReport(spec_text=spec.render(), epsilon=epsilon)
    ln_kstar = ln_fraction(consts.kstar)

    n = 2
    while True:
        prev = table.n
        try:
            table.extend(n)
        except MemoryBudgetError:
            report.reason = "memory budget exhausted"
            break
        lnS = table.ln_values()
        low = max(
            lower_bound_ln(table, consts, n),
            _sup_lower_vector(lnS, ln_kstar, max(prev + 1, 1), n),
        )
        up = upper_bound_ln(table, consts, n)
        report.entries.append(BoundsEntry(n, low, up))
        report.best_ln_lower = max(report.best_ln_lower, low)
        report.best_ln_upper = min(report.best_ln_upper, up)
        report.max_n = n
        log.info("refine n=%d lower=%.9g upper=%.9g ratio=%.6g",
                 n, exp_ln(report.best_ln_lower), exp_ln(report.best_ln_upper),
                 report.ratio)
        if report.ratio <= 1.0 + epsilon:
            report.converged = True
            report.reason = "converged"
            break
        if seconds is not None and time.perf_counter() - start > seconds:
            report.reason = "time budget exhausted"
            break
        if n >= max_n:
            report.reason = "length budget exhausted"
            break
        n = min(2 * n, max_n)
    report.elapsed = time.perf_counter() - start
    return report


# -- sanity fixtures with known rates ------------------------------------

# Closed-form growth rates used to calibrate the machinery end to end.
# Each entry: spec text, exact-ish rate as a float, soft ratio threshold.


def _kfold_rate(k: int) -> float:
    return math.exp(k * math.log(k) - (k - 1) * math.log(k - 1))


@dataclass(frozen=True)
class KnownRateResult:
    name: str
    spec_text: str
    rate: float
    report: BoundsReport
    contained: bool
    ratio: float
    ratio_threshold: float
    ratio_ok: bool


def known_rate_check(name: str, k: int | None = None, max_n: int = 4096,
                     seconds: float | None = None) -> KnownRateResult:
    """Run refine on a sequence with a known growth rate and check the
    sandwich contains it.  Containment is the hard requirement; the ratio
    threshold is a quality target the caller may treat as a warning.
    """
    if name == "catalan":
        text, rate, threshold = "sum 2 1\n", 4.0, 1.5
    elif name == "schroeder":
        text, rate, threshold = "sum 1 1\nsum 2 1\n", 3.0 + 2.0 * math.sqrt(2.0), 1.6
    elif name == "kfold":
        if k is None or k < 2:
            raise ValueError("kfold needs k >= 2")
        text, rate, threshold = f"sum {k} 1\n", _kfold_rate(k), 1.8
    else:
        raise ValueError(f"unknown fixture {name!r} (catalan, schroeder, kfold)")
    spec = parse_spec(text)
    # A tiny epsilon pushes refine through the whole length budget so the
    # sandwich is as tight as the budget allows.
    report = refine(spec, epsilon=1e-9, max_n=max_n, seconds=seconds)
    ln_rate = math.log(rate)
    contained = (
        report.best_ln_lower - 1e-12 <= ln_rate <= report.best_ln_upper + 1e-12
    )
    ratio = report.ratio
    return KnownRateResult(
        name=name,
        spec_text=text,
        rate=rate,
        report=report,
        contained=contained,
        ratio=ratio,
        ratio_threshold=threshold,
        ratio_ok=ratio <= threshold,
    )
