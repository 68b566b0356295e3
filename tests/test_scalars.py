"""Log-domain helpers against exact rationals, and the read-only records."""

import math
import struct
import zlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldrate import (CacheCorruptError, ExactScalar, LogScalar, compute_sequence, ln_fraction,
                      ln_int, load_cache, parse_spec, save_cache)
from foldrate.scalars import LN_ZERO, _int_bytes, _take_int, log_sum_vec


def test_exact_is_immutable():
    a = ExactScalar(Fraction(1))
    with pytest.raises(AttributeError):
        a.value = Fraction(2)
    with pytest.raises(AttributeError):
        LogScalar(0.5).ln_value = 1.0


def test_exact_comparisons_and_hash():
    assert ExactScalar(Fraction(2)) == ExactScalar(Fraction(4, 2))
    assert ExactScalar(Fraction(1)) != ExactScalar(Fraction(2))
    assert hash(ExactScalar(Fraction(3))) == hash(ExactScalar(Fraction(3)))


def test_log_mul_adds_lns():
    # log-domain weights multiply fold cells by adding ln values
    assert ln_fraction(3) + ln_fraction(5) == pytest.approx(
        ln_fraction(Fraction(15)), abs=1e-12
    )


def test_log_zero_is_additive_identity():
    assert log_sum_vec(np.array([LN_ZERO, 1.25])) == 1.25


def test_log_value_beyond_double_range_is_inf():
    assert LogScalar(math.log(3.0)).value == pytest.approx(3.0, rel=1e-15)
    assert LogScalar(710.0).value == math.inf  # math.exp(710) overflows


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
    assert np.logaddexp(ln_fraction(p), ln_fraction(q)) == pytest.approx(
        ln_fraction(p + q), abs=1e-12
    )


@given(positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_domains_agree_on_mul(p, q):
    assert ln_fraction(p) + ln_fraction(q) == pytest.approx(
        ln_fraction(p * q), abs=1e-12
    )


@given(positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_domains_agree_on_max(p, q):
    assert max(ln_fraction(p), ln_fraction(q)) == pytest.approx(
        ln_fraction(max(p, q)), abs=1e-12
    )


@given(st.lists(positive_fractions, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_log_sum_vec_is_ln_of_exact_sum(values):
    lns = np.array([ln_fraction(v) for v in values])
    assert log_sum_vec(lns) == pytest.approx(ln_fraction(sum(values)), abs=1e-12)


@given(positive_fractions, positive_fractions, positive_fractions)
@settings(max_examples=60, deadline=None)
def test_mul_distributes_over_max_exactly(a, b, c):
    # a * max(b, c) == max(a*b, a*c): exact for Fractions, and exact for
    # ln values because float addition is monotone and max picks one
    # operand verbatim
    assert a * max(b, c) == max(a * b, a * c)
    la, lb, lc = (ln_fraction(x) for x in (a, b, c))
    assert la + max(lb, lc) == max(la + lb, la + lc)


def _ln50(q: Fraction) -> Decimal:
    """ln q to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def _assert_outward(q):
    lo, mid, hi = ln_fraction(q, -1), ln_fraction(q), ln_fraction(q, 1)
    assert lo <= mid <= hi
    assert Decimal(lo) <= _ln50(Fraction(q)) <= Decimal(hi), q
    return lo, hi


@pytest.mark.parametrize("q", [
    Fraction(23, 4), Fraction(23, 4) ** 64, 2, 3, 2**53 - 1, 2**53 + 1, 2**64 - 1, 2**64 + 1,
    10**500 + 12345, Fraction(10**30 + 1, 10**30), Fraction(2**200 + 1, 2**200 - 1),
    Fraction(1, 7**300), 1,
])
def test_ln_fraction_rounds_outward(q):
    # checked against a 50-digit decimal log; where no digits cancel, the
    # two sides are a few dozen ulps apart at most
    lo, hi = _assert_outward(q)
    if q == 1:
        assert lo < 0.0 < hi
    elif abs(_ln50(Fraction(q))) > 1:
        assert hi - lo <= 2.0 ** -40 * abs(ln_fraction(q))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**300), st.integers(min_value=1, max_value=2**300))
def test_ln_fraction_rounds_outward_on_random_fractions(num, den):
    _assert_outward(Fraction(num, den))


# 0, +-1, and both sides of every +-2^(8k-1), where a two's complement
# int needs one byte more
_EDGES = [0, 1, -1] + [s * (2 ** (8 * k - 1)) + d
                       for k in range(1, 10) for s in (1, -1) for d in (-1, 0, 1)]


@given(st.one_of(st.sampled_from(_EDGES), st.integers(),
                 st.integers(-(2**40000), 2**40000)))
@example(3**20000)
@example(-(7**9000))
@settings(max_examples=300, deadline=None)
def test_int_codec_round_trips(v):
    # a u64 byte length, then the fewest little-endian two's complement
    # bytes that hold v; _take_int reads exactly those back
    data = _int_bytes(v) + b"rest"
    assert int.from_bytes(data[:8], "little") == (v.bit_length() + 8) // 8 == len(data) - 12
    pos = 0

    def take(k):
        nonlocal pos
        pos += k
        return data[pos - k : pos]

    assert _take_int(take) == v and data[pos:] == b"rest"


def test_a_byte_length_past_the_end_of_the_file_is_truncated(tmp_path):
    # the last t_m's byte length rewritten to run past the checksum, under
    # a valid checksum
    spec = parse_spec("sum 2 1")
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(spec, 10, domain="exact"), str(path))
    data = bytearray(path.read_bytes())
    last = len(data) - 4 - len(_int_bytes(16796))  # t_10, the Catalan number C_10
    assert data[last + 8 : -4] == (16796).to_bytes(2, "little")
    struct.pack_into("<Q", data, last, 4)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError, match="truncated"):
        load_cache(str(path), spec)
