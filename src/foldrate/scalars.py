"""Sequence values in two interchangeable arithmetic domains.

ExactScalar wraps an arbitrary-precision nonnegative rational; nothing ever
rounds.  LogScalar stores the natural log of the value in a double, with
-inf standing for zero; multiplication becomes addition, addition becomes a
stable log-sum-exp, and max is max.  Both expose the same operations so code
written against one works against the other.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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


def ln_fraction(q) -> float:
    """Natural log of a positive int or Fraction of any size."""
    if isinstance(q, int):
        return ln_int(q)
    if q <= 0:
        raise ValueError(f"ln of non-positive value {q}")
    return ln_int(q.numerator) - ln_int(q.denominator)


def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow; LN_ZERO is the additive identity."""
    if a == LN_ZERO:
        return b
    if b == LN_ZERO:
        return a
    d = a - b
    if d >= 0.0:
        return a + math.log1p(math.exp(-d))
    return b + math.log1p(math.exp(d))


def log_sum_vec(values: np.ndarray) -> float:
    """Stable log-sum-exp reduction of a vector of ln-values."""
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


class ExactScalar:
    """A nonnegative rational sequence value; arithmetic is loss-free."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = value if isinstance(value, Fraction) else Fraction(value)
        if value < 0:
            raise ValueError(f"sequence values are nonnegative, got {value}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def from_rational(cls, q) -> "ExactScalar":
        return cls(Fraction(q))

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ExactScalar(self.value + other.value)

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ExactScalar(self.value * other.value)

    def __eq__(self, other):
        return isinstance(other, ExactScalar) and self.value == other.value

    def __lt__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.value < other.value

    def __le__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.value <= other.value

    def __hash__(self):
        return hash(("ExactScalar", self.value))

    def ln(self) -> float:
        if self.value == 0:
            raise ValueError("ln of exact zero")
        return ln_fraction(self.value)

    def nth_root_ln(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"root index must be >= 1, got {n}")
        return self.ln() / n

    def __repr__(self):
        return f"ExactScalar({self.value!r})"


class LogScalar:
    """A sequence value stored as its natural log; zero is ln = -inf."""

    __slots__ = ("ln_value",)

    def __init__(self, ln_value: float):
        object.__setattr__(self, "ln_value", float(ln_value))

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("LogScalar is immutable")

    @classmethod
    def from_rational(cls, q) -> "LogScalar":
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"sequence values are nonnegative, got {q}")
        if q == 0:
            return cls(LN_ZERO)
        return cls(ln_fraction(q))

    @property
    def value(self) -> float:
        """The linear value; inf once it exceeds the double range."""
        return exp_ln(self.ln_value)

    def __add__(self, other):
        if not isinstance(other, LogScalar):
            return NotImplemented
        return LogScalar(log_add(self.ln_value, other.ln_value))

    def __mul__(self, other):
        if not isinstance(other, LogScalar):
            return NotImplemented
        return LogScalar(self.ln_value + other.ln_value)

    def __eq__(self, other):
        return isinstance(other, LogScalar) and self.ln_value == other.ln_value

    def __lt__(self, other):
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self.ln_value < other.ln_value

    def __le__(self, other):
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self.ln_value <= other.ln_value

    def __hash__(self):
        return hash(("LogScalar", self.ln_value))

    def ln(self) -> float:
        if self.ln_value == LN_ZERO:
            raise ValueError("ln of zero")
        return self.ln_value

    def nth_root_ln(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"root index must be >= 1, got {n}")
        return self.ln() / n

    def __repr__(self):
        return f"LogScalar(ln={self.ln_value!r})"


def max_of(a, b):
    """Larger of two scalars from the same domain."""
    return b if a < b else a


def nth_root_ln(x, n: int) -> float:
    """ln of the n-th root of a positive scalar, i.e. ln(x) / n."""
    return x.nth_root_ln(n)
