"""Growth-rate sandwich: bound formulas, refinement loop, known fixtures."""

import math

import pytest

from foldrate import (
    BoundsEntry,
    BoundsReport,
    compute_sequence,
    derive_constants,
    evaluate_bounds,
    known_rate_check,
    lower_bound_ln,
    parse_spec,
    refine,
    sup_lower_bound_ln,
    upper_bound_ln,
    upper_coefficients,
)

CATALAN = parse_spec("sum 2 1")
MAX22 = parse_spec("max 2 2")


def test_catalan_lower_bound_at_two_is_one():
    # (1/2) * [ln 1 - ln(2*1*1) + ln 2] = 0, so the bound is e^0 = 1
    table = compute_sequence(CATALAN, 2, domain="exact")
    consts = derive_constants(CATALAN)
    assert lower_bound_ln(table, consts, 2) == pytest.approx(0.0, abs=1e-15)


def test_catalan_upper_coefficient():
    consts = derive_constants(CATALAN)
    a, b = upper_coefficients(consts, 64)
    # base-3/2 logs: A = 18*log(3) + 2*log(4) ~ 55.61
    assert a == pytest.approx(
        (18 * math.log(3) + 2 * math.log(4)) / math.log(1.5), rel=1e-12
    )
    assert b == pytest.approx(
        (3 * math.log(64) + 12 * math.log(3) + math.log(4)) / math.log(1.5), rel=1e-12
    )


def test_sup_lower_is_flat_for_pure_max():
    # s_n = 2^n makes (kstar * s_{n-1})^(1/n) = 2 at every n
    table = compute_sequence(MAX22, 64, domain="exact")
    consts = derive_constants(MAX22)
    for n in range(1, 65):
        assert sup_lower_bound_ln(table, consts, n) == pytest.approx(
            math.log(2), abs=1e-12
        )


def test_bound_argument_guards():
    table = compute_sequence(CATALAN, 8, domain="log")
    consts = derive_constants(CATALAN)
    with pytest.raises(ValueError):
        lower_bound_ln(table, consts, 1)
    with pytest.raises(ValueError):
        upper_bound_ln(table, consts, 9)
    with pytest.raises(ValueError):
        sup_lower_bound_ln(table, consts, 0)


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
    report = refine(CATALAN, epsilon=1e-9, max_n=1 << 20, seconds=0.05)
    assert not report.converged
    assert report.reason == "time budget exhausted"


def test_refine_argument_guards():
    with pytest.raises(ValueError):
        refine(CATALAN, epsilon=0.0)
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


def test_known_rate_catalan_contained_at_moderate_length():
    result = known_rate_check("catalan", max_n=256)
    assert result.contained
    assert result.rate == 4.0
    # 256 steps cannot reach the quality threshold yet; that is reported,
    # not failed
    assert not result.ratio_ok
    assert result.ratio > result.ratio_threshold


def test_known_rate_kfold_two_is_catalan_rate():
    result = known_rate_check("kfold", k=2, max_n=128)
    assert result.rate == pytest.approx(4.0, rel=1e-12)
    assert result.contained


def test_known_rate_bad_names():
    with pytest.raises(ValueError):
        known_rate_check("fibonacci")
    with pytest.raises(ValueError):
        known_rate_check("kfold")
    with pytest.raises(ValueError):
        known_rate_check("kfold", k=1)


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
