"""Log-domain helpers and the read-only records SequenceTable returns.

The ln helpers take exact ints and Fractions of any size to doubles, and
add ln-values without overflow (-inf stands for zero).  ExactScalar and
LogScalar only carry a value out of a table: ``.value`` is the Fraction,
or the linear float of a LogScalar's ``.ln_value``.  The arithmetic
itself lives in the engine's tables.

The records of the exact path (these two, Term, RecurrenceSpec,
GrowthConstants and holonomic.Recurrence) are namedtuples with
_Record's equality: defining them takes less time than importing
dataclasses.

_int_bytes and _take_int are the cache's one codec for an exact int
(foldrate.cache docstring): a u64 byte length, then the int's
little-endian two's complement bytes.
"""

from __future__ import annotations

import math
from collections import namedtuple

LN_ZERO = float("-inf")

_LN2 = math.log(2.0)

# Integers up to 2**63 convert to float losslessly enough for a direct log;
# above that we keep a 64-bit mantissa and account for the shift exactly.
_MANTISSA_BITS = 64


def ln_int(n: int) -> float:
    """Natural log of a positive integer, accurate to ~1 ulp at any size."""
    if n <= 0:
        raise ValueError(f"ln of non-positive integer {n}")
    shift = n.bit_length() - _MANTISSA_BITS
    if shift <= 0:
        return math.log(n)
    # n = (n >> shift) * 2**shift * (1 + r) with 0 <= r < 2**-63: negligible.
    return shift * _LN2 + math.log(n >> shift)


def _ln_int_error(n: int, v: float) -> float:
    """A bound on |ln_int(n) - ln n| for v = ln_int(n), taking libm's log
    as accurate to 1 ulp.  Below 2^53, n converts to a double exactly, and
    the error is libm's.  From there on, rounding n (or n >> shift) to a
    double, the shift times math.log(2) and the sum add at most 2.5 ulps
    of v, and libm's error on the log of a 64-bit mantissa at most
    2^-47."""
    return math.ulp(v) if n < 1 << 53 else 4 * math.ulp(v) + 2.0 ** -46


def ln_ratio(num: int, den: int = 1, side: int = 0) -> float:
    """Natural log of num / den, for positive ints of any size.

    side -1 or 1 rounds the result outward: a double at most, or at
    least, the true log.  The allowance is the two terms' ln_int errors
    and an ulp of the difference, doubled for the rounding of the sum.
    """
    if num <= 0 or den <= 0:
        raise ValueError(f"ln of non-positive value {num}/{den}")
    a, b = ln_int(num), ln_int(den)
    v = a - b
    if side:
        err = 2 * (_ln_int_error(num, a) + _ln_int_error(den, b) + math.ulp(v))
        v = math.nextafter(v + side * err, side * math.inf)
    return v


def ln_fraction(q, side: int = 0) -> float:
    """Natural log of a positive int or Fraction of any size (ln_ratio)."""
    if isinstance(q, int):
        return ln_ratio(q, 1, side)
    return ln_ratio(q.numerator, q.denominator, side)


def _ln_outward(q, side: int) -> float:
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


def log_sum_vec(values) -> float:
    """Stable log-sum-exp reduction of a numpy vector of ln-values."""
    import numpy as np  # only log tables call this; exact ones need no numpy

    m = float(values.max())
    if m == LN_ZERO or math.isinf(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


def exp_ln(ln: float, overflow=math.inf):
    """The linear value e**ln of an ln-quantity, or ``overflow`` where that
    exceeds the double range (``math.exp`` would raise OverflowError)."""
    try:
        x = math.exp(ln)
    except OverflowError:
        return overflow
    return overflow if math.isinf(x) else x


def round12(x):
    """x to 12 significant digits for display; None, inf and nan pass through."""
    if x is None or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _int_bytes(v: int) -> bytes:
    """v as a cache file stores an exact int (module docstring)."""
    b = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
    return len(b).to_bytes(8, "little") + b


def _take_int(take) -> int:
    """The int _int_bytes wrote, read through take(k), which returns the
    next k bytes."""
    return int.from_bytes(take(int.from_bytes(take(8), "little")), "little", signed=True)


class _Record:
    """Mixed in before a namedtuple: an immutable record that equals a
    plain tuple of the same fields, hashes as it, and equals no record
    of another class."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, tuple) and type(other) not in (tuple, type(self)):
            return NotImplemented
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)


class ExactScalar(_Record, namedtuple("ExactScalar", "value")):
    """An exact sequence value or fold cell (a Fraction)."""

    __slots__ = ()


class LogScalar(_Record, namedtuple("LogScalar", "ln_value")):
    """A sequence value or fold cell stored as its natural log."""

    __slots__ = ()

    @property
    def value(self) -> float:
        """The linear value; inf once it exceeds the double range."""
        return exp_ln(self.ln_value)
