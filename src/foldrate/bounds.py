"""Certified two-sided bounds on the growth rate lim s_n^(1/n).

Both directions come from finite prefixes of the sequence.  Writing L for
the largest arity, k* for the largest weight among arity>=2 terms and s1
for the weight sum, the lower bound is

    sup_lower(n) = (1/n) * [ln k* + ln s_{n-1}]                     n >= 1

and the upper bound is, with alpha = 1/ln((L+1)/L) and
beta' = alpha*ln(s1*L^2/k*),

    upper(n) = (1/n) * [A*ln 3 + B(n)*ln n + ln s_n]
    A        = 18*alpha*ln 3 + 2*beta'
    B(n)     = 3*alpha*ln n + 12*alpha*ln 3 + beta'

The paper's other lower bound, (1/n) * [ln k* - ln(L*(n-1)*s1) + ln s_n],
is not computed: taking logs of the history inequality
s_n <= L*(n-1)*s1*s_{n-1} (tested by acceptance check C2) shows it never
exceeds sup_lower(n), up to 1 ulp of rounding where the two tie.

Every sup_lower(n) is <= the true rate and every upper(n) is >= it, so
the running max of lowers and min of uppers form a shrinking sandwich.
refine() doubles the table length until the sandwich ratio reaches a
target or a budget runs out; an unconverged run is reported, not raised.
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
    "refine",
]

log = logging.getLogger(__name__)

_LN3 = math.log(3.0)

DEFAULT_EPSILON = 0.25
DEFAULT_MAX_N = 1 << 14


def _bracket(ln_s: np.ndarray, consts: GrowthConstants, n: int, lo: int):
    """(ln lower, ln upper) read off ln s_0..s_n at n >= 2.

    The lower is the best sup-form bound at any index in [lo, n].  The log
    of n is a scalar math.log call: np.log differs from math.log in the
    last bit on some integers, which would move reported digits.
    """
    ln_kstar = ln_fraction(consts.kstar)
    ln_n = math.log(n)
    sup = float(((ln_kstar + ln_s[lo - 1 : n]) / np.arange(lo, n + 1, dtype=np.float64)).max())
    a = 18.0 * consts.alpha * _LN3 + 2.0 * consts.beta_prime
    b = 3.0 * consts.alpha * ln_n + 12.0 * consts.alpha * _LN3 + consts.beta_prime
    return sup, (a * _LN3 + b * ln_n + float(ln_s[n])) / n


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

    def add(self, n: int, ln_lower: float, ln_upper: float) -> None:
        """Append the sandwich at n and fold it into the best envelope."""
        self.entries.append(BoundsEntry(n, ln_lower, ln_upper))
        self.best_ln_lower = max(self.best_ln_lower, ln_lower)
        self.best_ln_upper = min(self.best_ln_upper, ln_upper)

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


def evaluate_bounds(table: SequenceTable, consts: GrowthConstants | None = None,
                    ns=None, epsilon: float | None = None,
                    max_n: int | None = None) -> BoundsReport:
    """Evaluate the sandwich at the given indices (default: powers of two).

    Only s_0..s_{max_n} are read (default: the whole table), so the report
    does not depend on how far the table reaches beyond max_n.  The
    reported best lower also folds in the supremum-form bound over every
    index up to max_n, which costs O(N) and never hurts.
    """
    if consts is None:
        consts = derive_constants(table.spec)
    if max_n is None:
        max_n = table.n
    if max_n > table.n:
        raise ValueError(f"table only extends to {table.n}, cannot read up to {max_n}")
    if max_n < 2:
        raise ValueError("need a table extended to at least n = 2")
    if ns is None:
        ns = _powers_of_two(max_n)
    report = BoundsReport(spec_text=table.spec.render(), epsilon=epsilon)
    ln_s = table.ln_values()
    for n in sorted(set(ns)):
        if n < 2:
            raise ValueError(f"bound needs n >= 2, got {n}")
        if n > max_n:
            raise ValueError(f"bounds read up to {max_n}, cannot evaluate at {n}")
        report.add(n, *_bracket(ln_s, consts, n, n))
    report.best_ln_lower = max(report.best_ln_lower, _bracket(ln_s, consts, max_n, 1)[0])
    report.max_n = max_n
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
    exception.  The wall clock budget is checked before each doubling, so
    a step predicted to overrun it is never started: the last step's time
    times the largest step-to-step ratio seen so far, at least 4.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    start = time.perf_counter()
    consts = derive_constants(spec)
    table = SequenceTable(spec, domain=domain, memory_limit=memory_limit)
    report = BoundsReport(spec_text=spec.render(), epsilon=epsilon)

    n, growth, last = 2, 4.0, None
    while True:
        prev = table.n
        step = time.perf_counter()
        try:
            table.extend(n)
        except MemoryBudgetError:
            report.reason = "memory budget exhausted"
            break
        step = time.perf_counter() - step
        report.add(n, *_bracket(table.ln_values(), consts, n, prev + 1))
        report.max_n = n
        log.info("refine n=%d lower=%.9g upper=%.9g ratio=%.6g",
                 n, exp_ln(report.best_ln_lower), exp_ln(report.best_ln_upper),
                 report.ratio)
        if report.ratio <= 1.0 + epsilon:
            report.converged = True
            report.reason = "converged"
            break
        if n >= max_n:
            report.reason = "length budget exhausted"
            break
        # O(N^2) makes a doubling cost ~4x the last, more if the host slows
        if last:
            growth = max(growth, step / last)
        last = step
        if seconds is not None and time.perf_counter() - start + growth * step > seconds:
            report.reason = "time budget exhausted"
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


def known_rate_check(name: str, k: int | None = None, max_n: int = 4096) -> KnownRateResult:
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
    report = refine(spec, epsilon=1e-9, max_n=max_n)
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
