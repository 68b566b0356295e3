"""Certified two-sided bounds on the growth rate lim s_n^(1/n).

Both directions come from finite prefixes of the sequence.  The sequence
is supermultiplicative, s_a * s_b <= s_{a+b} (engine docstring), so by
Fekete's lemma the rate is sup_k s_k^(1/k) and every index gives a lower
bound,

    lower(k) = ln s_k / k                                          k >= 1

which needs no constant from the spec.  It dominates the bound
(ln k* + ln s_{n-1})/n at the same index, since k* s_{n-1} <= s_n.

The upper bound is the paper's, for the reduced spec in which each max
term is the arity-1 sum term it equals (recurrence.derive_constants).
With L, k* and s1 its constants, alpha = 1/ln((L+1)/L) and
beta' = alpha*ln(s1*L^2/k*),

    upper(n) = ln s_n / n + e(n)
    e(n)     = (A*ln 3 + B(n)*ln n) / n
    A        = 18*alpha*ln 3 + 2*beta'
    B(n)     = 3*alpha*ln n + 12*alpha*ln 3 + beta'

Every lower(k) is <= the true rate and every upper(n) is >= it, so the
running max of lowers and min of uppers form a shrinking sandwich.  As
lower(n) sits inside it, its width at n is at most e(n), which depends
on the constants alone and strictly decreases for n >= 1 (beta' > 0).
So refine() works out, before computing anything, the least n* with
e(n*) <= ln(1 + epsilon), and doubles the index n but stops at n*
instead of the next power of two past it: no n below n* is certified by
this argument, and n* is.  It reads s_n at those points alone, as a
certified bracket on ln s_n from Lagrange inversion (lagrange docstring),
so its lower(n) and upper(n) hold with every rounding accounted for;
evaluate_bounds reads a table, and in the log domain its values carry
no rounding radius.  Convergence is still read off the sandwich itself,
never off n*, and a run that rounding leaves short of the target at n*
keeps doubling.  refine() stops on convergence or when a budget runs
out; an unconverged run is reported, not raised.

The rate itself has a closed form, which rate_interval brackets and
neither bound reads.  In the reduced spec, S(z) = sum s_n z^n solves
S = 1 + z P(S) with P(y) = sum of k y^arity over the merged weights, so
the rate is min over y > 1 of P(y) / (y-1) (Flajolet and Sedgewick,
Analytic Combinatorics, ch. VII): P(1) when deg P = 1, and otherwise
P(tau) / (tau-1) at the unique root tau > 1 of f(y) = (y-1) P'(y) - P(y).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import DEFAULT_EPSILON, DEFAULT_MAX_N
from .engine import DEFAULT_MEMORY_LIMIT, SequenceTable
from .recurrence import GrowthConstants, RecurrenceSpec, derive_constants
from .scalars import exp_ln, ln_fraction, round12

__all__ = [
    "BoundsEntry",
    "BoundsReport",
    "evaluate_bounds",
    "rate_interval",
    "refine",
]

log = logging.getLogger(__name__)

_LN3 = math.log(3.0)

# e(n) grows with alpha and beta', and every term is positive.  Past
# beta's log, which is rounded up (derive_constants), it is made of about
# 30 roundings, each within an ulp (libm's log and log1p included), so its
# relative error is below 2^-48; this factor covers it four times over.
_EXCESS_UP = 1.0 + 2.0 ** -46


def _excess(consts: GrowthConstants, n: int, up: bool = False) -> float:
    """e(n) = upper(n) - ln s_n / n, from the constants alone; with up,
    raised by _EXCESS_UP to a double at least e(n).

    The log of n is a scalar math.log call: np.log differs from math.log
    in the last bit on some integers, which would move reported digits.
    """
    ln_n = math.log(n)
    a = 18.0 * consts.alpha * _LN3 + 2.0 * consts.beta_prime
    b = 3.0 * consts.alpha * ln_n + 12.0 * consts.alpha * _LN3 + consts.beta_prime
    e = (a * _LN3 + b * ln_n) / n
    return e * _EXCESS_UP if up else e


def _sandwich(ln_lo_n: float, ln_hi_n: float, consts: GrowthConstants, n: int):
    """(ln lower, ln upper) at n >= 2 from doubles at most and at least
    ln s_n: ln s_n / n rounded down by an ulp, and upper(n)."""
    return math.nextafter(ln_lo_n / n, -math.inf), _upper(ln_hi_n, consts, n)


def _upper(ln_s: float, consts: GrowthConstants, n: int) -> float:
    """upper(n) from a double at least ln s_n: the division rounded up
    by an ulp, e(n) rounded up (_excess), and the sum by an ulp."""
    upper = math.nextafter(ln_s / n, math.inf) + _excess(consts, n, True)
    return math.nextafter(upper, math.inf)


def _last_step(consts: GrowthConstants, epsilon: float, max_n: int) -> int:
    """The least n in [2, max_n] with e(n) <= ln(1 + epsilon), else max_n.

    Bisection on the strictly decreasing e(n): O(log max_n) scalar calls.
    """
    target = math.log1p(epsilon)
    lo, hi = 1, max_n
    if _excess(consts, hi) > target:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _excess(consts, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


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
    reported best lower also folds in the Fekete bound at every index up
    to max_n, which costs O(N) and never hurts.
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
    # equal in the log domain, whose values carry no rounding radius yet
    ln_lo, ln_hi = table.ln_values(-1), table.ln_values(1)
    for n in sorted(set(ns)):
        if n < 2:
            raise ValueError(f"bound needs n >= 2, got {n}")
        if n > max_n:
            raise ValueError(f"bounds read up to {max_n}, cannot evaluate at {n}")
        report.add(n, *_sandwich(ln_lo[n], ln_hi[n], consts, n))
    # the best ln s_k / k at any k <= max_n; stepping down commutes with the max
    fekete = math.nextafter(float((ln_lo[1 : max_n + 1] / range(1, max_n + 1)).max()), -math.inf)
    report.best_ln_lower = max(report.best_ln_lower, fekete)
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
           memory_limit: int = DEFAULT_MEMORY_LIMIT) -> BoundsReport:
    """Evaluate the sandwich at more indices until its ratio is <= 1 + epsilon.

    Evaluation happens at each index in the schedule 2, 4, 8, ..., each
    step doubling n but stopping at max_n and at n*, the least n whose
    excess e(n) is within ln(1 + epsilon) (module docstring).  Each point
    reads a certified bracket on ln s_n from lagrange.ln_point, in
    O(n d^3) work for d = deg P, and builds no table.
    Stops on convergence or when the max_n, wall clock or memory budget
    runs out, or when a point's float range guard fails; each yields
    converged=False in the report, with the reason named in ``reason``,
    rather than an exception.  Both the memory budget, on the projected
    working set of one point (lagrange.point_bytes), and the wall clock
    budget are checked before each point, so a point projected or
    predicted to overrun one is never started.  A point at n' is
    predicted at n' times the last point's time per index, times the
    largest point-to-point rise in that time seen so far (at least 1): a
    doubling at twice the last point's time.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    from . import lagrange  # numpy loads with the point evaluator only

    start = time.perf_counter()
    consts = derive_constants(spec)
    n_star = _last_step(consts, epsilon, max_n)
    report = BoundsReport(spec_text=spec.render(), epsilon=epsilon)

    n, slowdown, last_rate = 2, 1.0, None
    while True:
        if lagrange.point_bytes(spec, n) > memory_limit:
            report.reason = "memory budget exhausted"
            break
        step = time.perf_counter()
        try:
            ln_lo, ln_hi = lagrange.ln_point(spec, n)
        except FloatingPointError:
            report.reason = "float range exceeded"
            break
        step = time.perf_counter() - step
        report.add(n, *_sandwich(ln_lo, ln_hi, consts, n))
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
        # past n* (rounding left the ratio short) the doubling goes on
        nxt = min(2 * n, max_n if n >= n_star else n_star)
        # a point costs ~n steps; the time per step is the last point's,
        # times its largest rise between points so far, since the host
        # can slow down
        rate = step / n
        if last_rate:
            slowdown = max(slowdown, rate / last_rate)
        last_rate = rate
        predicted = slowdown * rate * nxt
        if seconds is not None and time.perf_counter() - start + predicted > seconds:
            report.reason = "time budget exhausted"
            break
        n = nxt
    report.elapsed = time.perf_counter() - start
    return report


# -- the closed-form rate -------------------------------------------------

# rate_interval bisects until its two bounds on the rate are within this
# relative distance of each other
_RATE_WIDTH = Fraction(1, 1 << 42)


def rate_interval(spec: RecurrenceSpec) -> tuple[float, float]:
    """(ln lower, ln upper) around ln of the rate, from P alone (module
    docstring), in exact Fractions.

    For deg P >= 2, bisection on f keeps a <= tau <= b, and as P
    increases and tau minimises P(y) / (y-1),
    P(a) / (b-1) <= rate <= P(b) / (b-1).  It stops once these are within
    _RATE_WIDTH relative, and their logs are rounded outward.
    """
    P = spec.merged_weights()[0]

    def at(y, c=P):
        return sum(w * y ** a for a, w in c.items())

    if max(P) == 1:
        lo = hi = at(1)
    else:
        dP = {a - 1: a * w for a, w in P.items()}
        # f(1) = -P(1) < 0, f' = (y-1) P'' > 0 on y > 1, and f grows
        # without bound
        a, b = Fraction(1), Fraction(2)
        while (b - 1) * at(b, dP) < at(b):
            a, b = b, 2 * b
        while True:
            lo, hi = at(a) / (b - 1), at(b) / (b - 1)
            if hi - lo <= _RATE_WIDTH * lo:
                break
            mid = (a + b) / 2
            if (mid - 1) * at(mid, dP) < at(mid):
                a = mid
            else:
                b = mid
    return _ln_outward(lo, -1), _ln_outward(hi, 1)


def _ln_outward(q: Fraction, side: int) -> float:
    """A double at most (side -1) or at least (side 1) ln q, for q > 0.

    Well inside the double range, q rounds to a double x with
    |ln q - ln x| < 2^-52, and libm's log of x is taken as accurate to an
    ulp of ln x, at most 2 ulps of the result v; the sum's rounding is
    covered by the final step.  Elsewhere ln_fraction rounds outward,
    with an allowance that grows with the size of q's terms.
    """
    if not 1e-300 < q < 1e300:
        return ln_fraction(q, side)
    v = math.log(q)
    return math.nextafter(v + side * (2 * math.ulp(v) + 2.0 ** -52), side * math.inf)
