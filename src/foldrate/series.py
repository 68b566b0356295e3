"""Truncated power series in float64, for the log domain's block solver.

A series is the array of its first B coefficients, and every product is
taken mod t^B.  _low computes only the B kept outputs of a product, as
one "valid" np.convolve against an operand padded with B - 1 zeros
(_padded); a caller that multiplies by one series many times pads it
once.  _inverse forms (1 - A)^-1 for A with no constant term by
doubling the number of known coefficients: if R_h = (1 - A)^-1 mod t^h,
then (1 - A) R_h = 1 - E with E = A R_h - R_h + 1, whose coefficients
below h vanish and whose coefficients h..2h-1 are those of A R_h, and
(1 - A)^-1 = R_h + E (1 - A)^-1, so

    R_2h = [R_h, R_h * (A * R_h)[h:2h] mod t^h],

about 2 B^2 / 3 multiply-adds in all, where the product form
prod_i (1 + A^(2^i)) takes 2 B^2 per factor.  Every step multiplies and
adds nonnegative series when A is nonnegative, and nothing is
subtracted, so each coefficient's rounding error stays relative to the
coefficient (foldrate.logdomain).

This module imports numpy; only the log domain loads it.
"""

from __future__ import annotations

import numpy as np


def _padded(x: np.ndarray) -> np.ndarray:
    """The B entries of x after B - 1 zeros: the first operand of _low."""
    return np.concatenate((np.zeros(len(x) - 1), x))


def _low(xp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y mod t^B for xp = _padded(x) and y of B entries: the B kept
    outputs of np.convolve(x, y)[:B] only, in one call."""
    return np.convolve(xp, y, "valid")


def _inverse(A: np.ndarray) -> np.ndarray:
    """(1 - A)^-1 mod t^B for A of B = 2^i entries with A[0] = 0, by
    doubling (module docstring)."""
    R = np.ones(1)
    while len(R) < len(A):
        # outputs h..2h-1 of A * R_h, which read A[1:2h] only
        R = np.concatenate((R, _low(_padded(R), np.convolve(A[1 : 2 * len(R)], R, "valid"))))
    return R
