"""Scalar domains: exact rationals against natural-log doubles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldrate import ExactScalar, LogScalar, ln_fraction, ln_int, max_of, nth_root_ln
from foldrate.scalars import LN_ZERO, log_add, log_sum_vec


def test_exact_add_and_mul():
    a = ExactScalar(Fraction(1, 3))
    b = ExactScalar(Fraction(1, 6))
    assert (a + b).value == Fraction(1, 2)
    assert (a * b).value == Fraction(1, 18)


def test_exact_rejects_negative():
    with pytest.raises(ValueError):
        ExactScalar(Fraction(-1, 2))


def test_exact_is_immutable():
    a = ExactScalar(1)
    with pytest.raises(AttributeError):
        a.value = Fraction(2)


def test_exact_comparisons_and_hash():
    assert ExactScalar(2) == ExactScalar(Fraction(4, 2))
    assert ExactScalar(1) < ExactScalar(2) <= ExactScalar(2)
    assert hash(ExactScalar(3)) == hash(ExactScalar(3))


def test_log_add_is_log_sum_exp():
    a = LogScalar(math.log(2.0))
    assert (a + a).ln_value == pytest.approx(math.log(4.0), abs=1e-15)


def test_log_mul_adds_lns():
    a = LogScalar.from_rational(3)
    b = LogScalar.from_rational(5)
    assert (a * b).ln_value == pytest.approx(math.log(15.0), abs=1e-12)


def test_log_zero_is_additive_identity():
    z = LogScalar.from_rational(0)
    a = LogScalar(1.25)
    assert z.ln_value == LN_ZERO
    assert (z + a).ln_value == 1.25
    assert (a + z).ln_value == 1.25
    with pytest.raises(ValueError):
        z.ln()


def test_log_value_beyond_double_range_is_inf():
    assert LogScalar(math.log(3.0)).value == pytest.approx(3.0, rel=1e-15)
    assert LogScalar(710.0).value == math.inf  # math.exp(710) overflows


def test_nth_root_ln():
    assert nth_root_ln(ExactScalar(1024), 10) == pytest.approx(math.log(2), abs=1e-12)
    assert nth_root_ln(LogScalar(10 * math.log(2)), 10) == pytest.approx(
        math.log(2), abs=1e-15
    )
    with pytest.raises(ValueError):
        nth_root_ln(ExactScalar(4), 0)


def test_max_of():
    assert max_of(ExactScalar(2), ExactScalar(3)).value == 3
    assert max_of(LogScalar(1.0), LogScalar(0.5)).ln_value == 1.0


def test_ln_int_small_and_huge():
    assert ln_int(1) == 0.0
    assert ln_int(42) == math.log(42)
    # far beyond float range: 2**8000 has ~2409 decimal digits
    assert ln_int(2**8000) == pytest.approx(8000 * math.log(2), rel=1e-15)
    assert ln_int(10**500 + 12345) == pytest.approx(500 * math.log(10), rel=1e-12)
    with pytest.raises(ValueError):
        ln_int(0)


def test_ln_fraction():
    assert ln_fraction(Fraction(3, 2)) == pytest.approx(math.log(1.5), abs=1e-15)
    assert ln_fraction(7) == math.log(7)
    with pytest.raises(ValueError):
        ln_fraction(Fraction(0))
    with pytest.raises(ValueError):
        ln_fraction(Fraction(-1, 3))


def test_log_add_function():
    assert log_add(LN_ZERO, LN_ZERO) == LN_ZERO
    assert log_add(0.0, LN_ZERO) == 0.0
    assert log_add(LN_ZERO, -1.5) == -1.5
    assert log_add(math.log(3), 0.0) == pytest.approx(math.log(4), abs=1e-15)
    # large magnitudes must not overflow
    assert log_add(1000.0, 1000.0) == pytest.approx(1000.0 + math.log(2), abs=1e-12)


def test_log_sum_vec():
    v = np.log(np.array([1.0, 2.0, 3.0, 4.0]))
    assert log_sum_vec(v) == pytest.approx(math.log(10.0), abs=1e-14)
    assert log_sum_vec(np.array([LN_ZERO, LN_ZERO])) == LN_ZERO
    assert log_sum_vec(np.array([700.0, 700.0, 700.0])) == pytest.approx(
        700.0 + math.log(3), abs=1e-12
    )


positive_fractions = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000
)


@given(positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_domains_agree_on_add(p, q):
    exact = ExactScalar(p) + ExactScalar(q)
    logd = LogScalar.from_rational(p) + LogScalar.from_rational(q)
    assert logd.ln_value == pytest.approx(exact.ln(), abs=1e-12)


@given(positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_domains_agree_on_mul(p, q):
    exact = ExactScalar(p) * ExactScalar(q)
    logd = LogScalar.from_rational(p) * LogScalar.from_rational(q)
    assert logd.ln_value == pytest.approx(exact.ln(), abs=1e-12)


@given(positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_domains_agree_on_max(p, q):
    exact = max_of(ExactScalar(p), ExactScalar(q))
    logd = max_of(LogScalar.from_rational(p), LogScalar.from_rational(q))
    assert logd.ln_value == pytest.approx(exact.ln(), abs=1e-12)


@given(positive_fractions, positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_mul_distributes_over_max_exactly(a, b, c):
    # a * max(b, c) == max(a*b, a*c); exact in both domains because
    # log-domain mul is float addition and max picks one operand verbatim
    left = ExactScalar(a) * max_of(ExactScalar(b), ExactScalar(c))
    right = max_of(ExactScalar(a) * ExactScalar(b), ExactScalar(a) * ExactScalar(c))
    assert left == right
    la, lb, lc = (LogScalar.from_rational(x) for x in (a, b, c))
    assert (la * max_of(lb, lc)).ln_value == max_of(la * lb, la * lc).ln_value
