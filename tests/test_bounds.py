"""Growth-rate sandwich: bound formulas, refinement loop, closed-form rate."""

import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from foldrate import bounds, lagrange
from foldrate import (
    BoundsEntry,
    BoundsReport,
    MemoryBudgetError,
    compute_sequence,
    evaluate_bounds,
    parse_spec,
    rate_interval,
    refine,
)
from helpers import MIXED_EXAMPLE, oracle_rate_interval, random_spec

CATALAN = parse_spec("sum 2 1")
MAX22 = parse_spec("max 2 2")
MIX = parse_spec(MIXED_EXAMPLE)
HIGHMAX = parse_spec("sum 2 1\nmax 48 1")


def _slack(n: int, d: int, e: int, magnitudes: float) -> float:
    """The radius the lagrange docstring puts on each side of its computed
    ln s_n: rho, |e| 2^-53 and 16 ulps of the terms' magnitudes (those of
    ln b, e ln 2, ln n and n ln Phi_0), for deg P = d and the exponent
    e of the scaled product."""
    m = n - 1
    rho = (3 * m + d * max(m - 1, 0)) * 2.0 ** -53 * (1 + 2.0 ** -16)
    return rho + abs(e) * 2.0 ** -53 + 16 * math.ulp(magnitudes)


def _ln50(q: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def test_catalan_fekete_lower_at_two_is_sqrt_two():
    # s_2 = 2, so the bound is ln(s_2) / 2 = ln 2 / 2, read off a bracket
    # on ln s_2: Phi(u) = (1 + u)^2 gives b = 4 from one matrix (e = 0),
    # the computed ln s_2 lies within one slack of ln 2, and the lower end
    # of its bracket within two
    table = compute_sequence(CATALAN, 2, domain="exact")
    (entry,) = evaluate_bounds(table, ns=[2]).entries
    slack = _slack(2, 2, 0, 3 * math.log(2))
    assert Decimal(entry.ln_lower) <= _ln50(Fraction(2)) / 2
    assert entry.ln_lower >= (math.log(2) - 2 * slack) / 2 - 2 * math.ulp(0.5)


def test_catalan_upper_coefficient():
    # base-3/2 logs: A = 18*log(3) + 2*log(4) ~ 55.61 is the exponent of 3,
    # B(n) = 3*log(n) + 12*log(3) + log(4) the exponent of n
    table = compute_sequence(CATALAN, 64, domain="exact")
    (entry,) = evaluate_bounds(table, ns=[64]).entries
    a = (18 * math.log(3) + 2 * math.log(4)) / math.log(1.5)
    b = (3 * math.log(64) + 12 * math.log(3) + math.log(4)) / math.log(1.5)
    s64 = math.comb(128, 64) // 65
    assert table.value(64).value == s64
    assert entry.ln_upper == pytest.approx(
        (a * math.log(3) + b * math.log(64) + math.log(s64)) / 64, rel=1e-12
    )


def test_sup_lower_is_flat_for_pure_max():
    # s_n = 2^n makes the Fekete bound s_n^(1/n) = 2 at every n
    table = compute_sequence(MAX22, 64, domain="exact")
    report = evaluate_bounds(table, ns=range(2, 65))
    for entry in report.entries:
        assert entry.ln_lower == pytest.approx(math.log(2), abs=1e-12)
    assert report.best_ln_lower == pytest.approx(math.log(2), abs=1e-12)


def test_bound_argument_guards():
    table = compute_sequence(CATALAN, 8, domain="log")
    for ns in ([1], [9], [0], [2, 4, 9]):
        with pytest.raises(ValueError):
            evaluate_bounds(table, ns=ns)


def test_sandwich_is_consistent_on_catalan():
    table = compute_sequence(CATALAN, 256, domain="log")
    report = evaluate_bounds(table)
    assert [e.n for e in report.entries] == [2, 4, 8, 16, 32, 64, 128, 256]
    assert report.best_ln_lower <= math.log(4) <= report.best_ln_upper
    for e in report.entries:
        assert e.ln_lower <= e.ln_upper
    # stronger: the running envelopes never cross
    assert report.best_ln_lower <= report.best_ln_upper


def test_catalan_lower_bound_estimate_at_512():
    table = compute_sequence(CATALAN, 512, domain="log")
    report = evaluate_bounds(table)
    assert 3.8 <= math.exp(report.best_ln_lower) <= 4.0


def test_evaluate_bounds_reads_no_table_value():
    # the points depend on the spec alone: a table of either domain, and
    # of any length past the last point, gives the same entries
    ns = [2 ** k for k in range(1, 9)]
    exact = evaluate_bounds(compute_sequence(MIX, 300, domain="exact"), ns=ns)
    assert exact.entries == evaluate_bounds(compute_sequence(MIX, 256, domain="log")).entries


def test_evaluate_bounds_needs_length_two():
    with pytest.raises(ValueError):
        evaluate_bounds(compute_sequence(CATALAN, 1, domain="log"))


def test_refine_catalan_converges():
    report = refine(CATALAN, epsilon=0.5, max_n=8192)
    assert report.converged
    assert report.reason == "converged"
    assert report.ratio <= 1.5
    assert report.best_ln_lower <= math.log(4) <= report.best_ln_upper
    assert report.elapsed > 0


def test_refine_max22_sandwiches_ln2_at_every_step():
    report = refine(MAX22, epsilon=0.5, max_n=8192)
    assert report.converged
    ln2 = math.log(2)
    for e in report.entries:
        assert e.ln_lower <= ln2 + 1e-12
        assert e.ln_upper >= ln2 - 1e-12
    assert report.best_ln_lower == pytest.approx(ln2, abs=1e-9)


def test_refine_reports_exhausted_length_budget():
    report = refine(CATALAN, epsilon=1e-6, max_n=4)
    assert not report.converged
    assert report.reason == "length budget exhausted"
    assert report.max_n == 4
    assert math.isfinite(report.ratio)


def test_refine_reports_exhausted_time_budget():
    report = refine(CATALAN, epsilon=1e-9, max_n=1 << 30, seconds=0.05)
    assert not report.converged
    assert report.reason == "time budget exhausted"


def test_refine_stops_inside_its_time_budget():
    # the next point is predicted from the last one before it starts; the
    # length budget is out of reach, so the time budget ends the run
    report = refine(CATALAN, epsilon=1e-9, max_n=1 << 30, seconds=0.5)
    assert report.reason == "time budget exhausted"
    assert report.elapsed <= 0.5
    assert report.max_n < 1 << 30


def _inject_clock(monkeypatch, cost):
    """A clock that only moves while a point is evaluated, by cost(n)."""
    clock = [0.0]
    real_point = lagrange._ln_point

    def ln_point(taps, n):
        clock[0] += cost(n)
        return real_point(taps, n)

    monkeypatch.setattr(bounds.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(lagrange, "_ln_point", ln_point)
    return clock


@pytest.mark.parametrize("cost, seconds, stop_n", [
    # a 7.5x spike at n = 4, 3.75x per index: twice n = 4's time would
    # start n = 8 at 8.5 s, predicting 15 s, and finish it at 64.75 s;
    # the largest rise predicts 56.25 s
    ({2: 1.0, 4: 7.5, 8: 56.25, 16: 421.875}, 40.0, 4),
    # points that only double are predicted at 2x: n = 8 starts at 3 s,
    # predicted 4 s, and ends at 7 s, but n = 16 would end at 15 s
    ({2: 1.0, 4: 2.0, 8: 4.0, 16: 8.0}, 10.0, 8),
])
def test_refine_predicts_with_the_largest_step_ratio(monkeypatch, cost, seconds, stop_n):
    clock = _inject_clock(monkeypatch, lambda n: cost[n])
    report = refine(CATALAN, epsilon=1e-9, max_n=1 << 10, seconds=seconds)
    assert report.reason == "time budget exhausted"
    assert report.max_n == stop_n
    assert report.elapsed == clock[0] <= seconds


def test_refine_predicts_a_short_last_step_by_its_length(monkeypatch):
    # time proportional to n: the points 2..1024 take 3.996 s, the
    # doubling to 2048 would take 4 s more, but the last point, n* = 1851,
    # takes 1851 / 512 = 3.615 s and fits in the 7.8 s budget
    clock = _inject_clock(monkeypatch, lambda n: n / 512)
    report = refine(CATALAN, epsilon=0.5, max_n=1 << 14, seconds=7.8)
    assert report.converged
    assert report.max_n == 1851
    assert report.elapsed == clock[0] <= 7.8


def test_refine_predicts_a_doubling_after_a_short_step_by_its_length(monkeypatch):
    # an n* at which the ratio is still short, as rounding can leave it:
    # the short point 1100 ends at 6.145 s, and the doubling to 2200 that
    # follows is predicted at twice its 2.148 s, past the 8 s budget
    monkeypatch.setattr(bounds, "_last_step", lambda consts, epsilon, max_n: 1100)
    clock = _inject_clock(monkeypatch, lambda n: n / 512)
    report = refine(CATALAN, epsilon=0.5, max_n=1 << 14, seconds=8.0)
    assert report.reason == "time budget exhausted"
    assert [e.n for e in report.entries][-2:] == [1024, 1100]
    assert report.elapsed == clock[0] <= 8.0


def test_refine_stops_at_the_first_certified_n():
    report = refine(MIX, epsilon=0.5)
    assert report.converged
    assert report.max_n == 4290
    assert report.ratio <= 1.5
    assert [e.n for e in report.entries][-2:] == [4096, 4290]
    # one index earlier the sandwich is not yet within 1.5
    assert evaluate_bounds(compute_sequence(MIX, 4289)).ratio > 1.5


def test_refine_doubles_while_n_star_is_out_of_reach():
    report = refine(CATALAN, epsilon=1e-9, max_n=1 << 10)
    assert [e.n for e in report.entries] == [2 ** k for k in range(1, 11)]


def test_refine_converges_on_highmax():
    report = refine(HIGHMAX, epsilon=0.5)
    assert report.converged
    assert report.max_n == 1902
    assert report.best_ln_lower <= math.log(3 + 2 * math.sqrt(2)) <= report.best_ln_upper


def test_refine_argument_guards():
    for epsilon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            refine(CATALAN, epsilon=epsilon)
    with pytest.raises(ValueError):
        refine(CATALAN, max_n=1)


def test_report_serialisation():
    report = refine(CATALAN, epsilon=0.5, max_n=4096)
    doc = report.to_json_dict()
    assert doc["spec"] == "sum 2 1\n"
    assert doc["converged"] is True
    assert doc["best"]["lower"] <= 4.0 <= doc["best"]["upper"]
    assert doc["best"]["ratio"] == float(f"{report.ratio:.12g}")
    rows = report.csv_rows()
    assert rows[0] == ["n", "ln_lower", "ln_upper", "lower", "upper", "ratio"]
    assert len(rows) == len(report.entries) + 1
    assert all(len(r) == 6 for r in rows)


def test_report_renders_overflowing_linear_values():
    report = BoundsReport(spec_text="sum 2 1\n", epsilon=None,
                          entries=[BoundsEntry(2, 0.5, 1000.0)],
                          best_ln_lower=0.5, best_ln_upper=1000.0)
    assert report.ratio == math.inf
    doc = report.to_json_dict()
    assert doc["entries"][0]["upper"] is None and doc["best"]["ratio"] is None
    assert doc["entries"][0]["ln_upper"] == 1000.0
    assert doc["best"]["lower"] == pytest.approx(math.exp(0.5), rel=1e-11)
    assert report.csv_rows()[1][4:] == [math.inf, math.inf]


# -- the closed-form rate oracle (tests/helpers.py) ----------------------


def test_oracle_named_rates():
    lo, hi = oracle_rate_interval(MIX)
    assert hi - lo < Fraction(1, 10 ** 20)
    assert float(lo) == pytest.approx(101.9497188727, abs=1e-9)
    # HIGHMAX's rate is 3 + 2*sqrt(2): (lo - 3)^2 <= 8 <= (hi - 3)^2
    lo, hi = oracle_rate_interval(HIGHMAX)
    assert 3 < lo <= hi and (lo - 3) ** 2 <= 8 <= (hi - 3) ** 2
    assert hi - lo < Fraction(1, 10 ** 20)
    lo, hi = oracle_rate_interval(CATALAN)
    assert lo <= 4 <= hi and hi - lo < Fraction(1, 10 ** 20)
    assert oracle_rate_interval(MAX22) == (2, 2)


def test_exact_bounds_do_not_overstate_a_geometric_rate():
    # s_n = (23/4)^n: the rate is 23/4, and the lower bound read off exact
    # values once sat 2 ulps above its log
    for text, rate in (("max 4 23/4", Fraction(23, 4)), ("max 2 2", Fraction(2))):
        report = evaluate_bounds(compute_sequence(parse_spec(text), 64, domain="exact"))
        assert Decimal(report.best_ln_lower) <= _ln50(rate) <= Decimal(report.best_ln_upper)
        # and it sits no further below than the point's bracket allows:
        # Phi(u) = rate (1 + u), so b_63 = 64 = 2^-1 2^7 (e = 7), and the
        # computed ln s_64 lies within one slack of the true one, its
        # lower end within two, before the division by n = 64
        ln_rate = math.log(rate)
        slack = _slack(64, 1, 7, 14 * math.log(2) + 64 * ln_rate)
        assert report.best_ln_lower >= ln_rate - 2 * slack / 64 - 2 * math.ulp(ln_rate)


@pytest.mark.parametrize("seed", range(12))
def test_bounds_bracket_the_oracle_rate(seed):
    spec = random_spec(random.Random(seed), kind=("mixed", "sum", "max")[seed % 3])
    lo, hi = oracle_rate_interval(spec)
    ln_lo, ln_hi = math.log(lo), math.log(hi)
    # the bounds are certified whatever the table's domain: they bracket
    # the 50-digit log of the oracle's interval with no slack
    for n, domain in ((64, "exact"), (512, "log")):
        report = evaluate_bounds(compute_sequence(spec, n, domain=domain))
        assert Decimal(report.best_ln_lower) <= _ln50(hi)
        assert Decimal(report.best_ln_upper) >= _ln50(lo)
    report = refine(spec, epsilon=0.5)
    assert report.converged
    assert report.best_ln_lower <= ln_lo + 1e-12
    assert report.best_ln_upper >= ln_hi - 1e-12


def _contains_oracle(spec) -> bool:
    # the whole oracle interval, in 50-digit logs, inside rate_interval's
    lo, hi = oracle_rate_interval(spec)
    ln_lo, ln_hi = rate_interval(spec)
    return Decimal(ln_lo) <= _ln50(Fraction(lo)) and _ln50(Fraction(hi)) <= Decimal(ln_hi)


def test_rate_interval_contains_the_oracle():
    for spec in (MIX, HIGHMAX, CATALAN, MAX22):
        assert _contains_oracle(spec), spec.render()
    rng = random.Random(0x12A7E)
    for _ in range(20):
        spec = random_spec(rng, kind=rng.choice(("mixed", "sum", "max")))
        assert _contains_oracle(spec), spec.render()


def test_rate_interval_is_narrow():
    for spec in (MIX, HIGHMAX, CATALAN, parse_spec("sum 1000 1")):
        ln_lo, ln_hi = rate_interval(spec)
        assert 0.0 < math.expm1(ln_hi - ln_lo) <= 1e-12, spec.render()
    ln_lo, ln_hi = rate_interval(MAX22)
    assert ln_lo < math.log(2) < ln_hi


def test_rate_interval_refuses_a_power_past_the_memory_budget():
    # y^(10^20) of the first bracket, y = 2, would hold 10^20 bits: refused
    # before it is formed
    start = time.perf_counter()
    with pytest.raises(MemoryBudgetError):
        rate_interval(parse_spec(f"sum {10 ** 20} 1"))
    assert time.perf_counter() - start < 1.0


def test_rate_interval_past_the_double_range():
    # the rate 4e400 has no double: its logs round outward through
    # ln_fraction, and nothing overflows
    ln_lo, ln_hi = rate_interval(parse_spec("sum 2 1e400"))
    assert math.isfinite(ln_lo) and math.isfinite(ln_hi)
    assert Decimal(ln_lo) <= _ln50(Fraction(4 * 10 ** 400)) <= Decimal(ln_hi)
