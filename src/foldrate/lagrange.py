"""Certified point values of ln s_n by Lagrange inversion.

The reduced spec gives S(z) = 1 + z P(S(z)) (bounds docstring), so with
Phi(u) = P(1+u), of degree d = deg P, Lagrange inversion (Flajolet and
Sedgewick, Analytic Combinatorics, Thm A.2) gives each value on its own:

    s_n = (1/n) [u^(n-1)] Phi(u)^n.

J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, sec. 4.7) gives the
coefficients a_k of Phi^n.  With b_k = a_k / Phi_0^n and r_j = Phi_j / Phi_0,

    b_0 = 1,    b_k = sum over 1 <= j <= min(d, k) of c_kj b_(k-j),
    c_kj = ((n+1) j - k) r_j / k,

and ln s_n = ln b_(n-1) + n ln Phi_0 - ln n.  Every Phi_j = sum of
w_a C(a, j) over the merged weights is positive for j <= d, and
(n+1) j - k >= 2 for k <= n - 1, so every c_kj is positive: the
recurrence never subtracts.  In the state (b_k, ..., b_(k-d+1)) each step
is a companion matrix M_k with row 0 = (c_k1, ..., c_kd) and ones below
the diagonal, and b_(n-1) is entry (0, 0) of M_(n-1) ... M_1.

The product is reduced pairwise with np.matmul, later matrices on the
left and an odd matrix out carried as the last factor, over chunks of
about 2^14 / d^2 matrices.  Each chunk is reduced to at most 1/32 of its
length, and what is left is put in front of the next chunk, so the
working set is one chunk.  Every product is scaled by an exact power of
two, from np.frexp of the sum of its entries, and the exponents add up to
e, so b_(n-1) = b * 2^e with b the final entry (0, 0).

The radius, a priori.  Let u = 2^-53 and gamma_d = d u / (1 - d u).
- (n+1) j - k and k are integers below 2^53 (guarded), so they are exact
  doubles.  r_j is Phi_j / Phi_0 correctly rounded, and c_kj takes one
  product and one division, so each computed c_kj is c_kj times a factor
  in [(1-u)^3, (1+u)^3].  The ones are exact.  An entry of the exact
  product is a sum of products of one entry per matrix, all nonnegative,
  so the inputs move b_(n-1) by a factor in [(1-u)^(3m), (1+u)^(3m)],
  m = n - 1.
- An entry of a product of nonnegative matrices is a sum of d
  nonnegative products, so its rounding is within gamma_d of it, in any
  order of summation (with or without fused multiply-adds).  The
  factors of the operands carry through, so the factor of the final
  entry is the product over all m - 1 matrix products, not over the
  depth of the tree: a rounding at any node scales the whole product.
- Scaling by a power of two is exact while no entry leaves the normal
  range.
So |ln b - e ln 2 - ln b_(n-1)| <= rho = 3m (-ln(1-u)) +
(m-1) (-ln(1-gamma_d)), below (3m + d(m-1)) u (1 + 2^-17) while
d u < 2^-20.  The last terms round outward: ln Phi_0 through
bounds._ln_outward, |e| 2^-53 for the rounding of ln 2, and 16 ulps of
the sum of the terms' magnitudes for two libm logs (an ulp each) and
five roundings (half an ulp each), with a factor 2 in case that sum
itself rounds below a power of two.

The range, guarded at run time.  Each r_j must lie in [2^-200, 2^200]
and d below 2^16, so each c_kj lies in [2^-252, 2^253].  After each
scaling the sum of the entries rounds to below 1, so every entry is below
2, and its smallest nonzero entry must be at least 2^-500.  A product of
two operands, each an input or scaled, then has nonzero entries in
[2^-1000, 2^506 d], at most 2^1010 d apart.  Its scaling divides by at
most 2 d^2 times its largest entry, so a nonzero entry neither overflows
nor becomes zero (it stays above 2^-1011 / d^3), and one that falls below
2^-500 fails the guard.  An exact zero stays exact: as every c_kj is
positive, the computed and exact products have the same zero pattern.  A
failed guard raises FloatingPointError instead of returning a bracket.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bounds import _ln_outward
from .recurrence import RecurrenceSpec

__all__ = ["ln_point", "point_bytes"]

_CELLS = 1 << 14  # float64 cells of one chunk
_TINY = 2.0 ** -500  # least nonzero entry of a scaled product
_TINY_BITS = int(np.float64(_TINY).view(np.int64)) - 1
_RATIO = 2.0 ** 200  # bound on r_j and 1 / r_j
_LN2 = math.log(2.0)


@lru_cache(maxsize=16)
def _taps(spec: RecurrenceSpec):
    """(Phi_0, its ln rounded down and up, read-only r_1..r_d)."""
    weights = spec.merged_weights()[0]
    phi = [sum(w * math.comb(a, j) for a, w in weights.items() if a >= j)
           for j in range(max(weights) + 1)]
    r = np.array([float(p / phi[0]) for p in phi[1:]])
    if not ((1 / _RATIO <= r) & (r <= _RATIO)).all():
        raise FloatingPointError("Phi_j / Phi_0 outside [2^-200, 2^200]")
    r.flags.writeable = False
    return _ln_outward(phi[0], -1), _ln_outward(phi[0], 1), r


def _chunk(d: int) -> tuple[int, int]:
    """Matrices per chunk and the most left over from one chunk."""
    size = max(2, _CELLS // (d * d))
    return size, max(1, size >> 5)


def point_bytes(spec: RecurrenceSpec, n: int) -> int:
    """Projected working set of ln_point(spec, n): the chunk's stack and
    the pairwise products and scaled copies made from it."""
    d = max(spec.merged_weights()[0])  # deg P
    return 24 * d * d * min(n, sum(_chunk(d)))


def _reduce(a, stop: int, exponents: list):
    """Reduce the stack a (ascending k) to at most stop matrices, each
    scaled, appending the exponents taken out to ``exponents``."""
    ones = np.ones(a.shape[1] * a.shape[2])
    while len(a) > stop:
        p = np.matmul(a[1::2], a[0:len(a) - 1:2])
        if len(a) % 2:
            p = np.concatenate((p, a[-1:]))
        total = p.reshape(len(p), -1) @ ones
        mant, ex = np.frexp(total)
        p *= (mant / total)[:, None, None]  # 2^-ex, exactly
        exponents.append(ex)
        # nonnegative doubles order as their bit patterns, and minus one
        # sends an exact zero to the top of the unsigned range
        if p.min() < _TINY and (p.view(np.int64) - 1).view(np.uint64).min() < _TINY_BITS:
            raise FloatingPointError("matrix product entries spread past 2^500")
        a = p
    return a


def ln_point(spec: RecurrenceSpec, n: int) -> tuple[float, float]:
    """(lo, hi) with lo <= ln s_n <= hi, for 1 <= n with (n+1)(d+3) < 2^53
    and d < 2^16 (module docstring).  Raises FloatingPointError if a range guard
    fails."""
    ln_lo, ln_hi, r = _taps(spec)
    d = len(r)
    if n < 1 or (n + 1) * (d + 3) >= 1 << 53 or d >= 1 << 16:
        raise ValueError(f"ln_point needs 1 <= n, (n+1)(d+3) < 2^53 and d < 2^16, "
                         f"got n = {n}, d = {d}")
    size, carry = _chunk(d)
    j = np.arange(1, d + 1)
    shift = np.eye(d)[:-1]
    stack, exponents = None, []
    for k0 in range(1, n, size):
        k = np.arange(k0, min(k0 + size, n))[:, None]
        a = np.empty((len(k), d, d))
        a[:, 0] = ((n + 1) * j - k) * r / k
        a[:, 1:] = shift
        if stack is not None:
            a = np.concatenate((stack, a))
        stack = _reduce(a, carry if k0 + size < n else 1, exponents)
    b = 1.0 if stack is None else float(stack[0, 0, 0])
    e = int(np.concatenate(exponents).sum()) if exponents else 0
    m = n - 1
    rho = (3 * m + d * max(m - 1, 0)) * 2.0 ** -53 * (1 + 2.0 ** -16)
    terms = (math.log(b), e * _LN2, -math.log(n))
    base = sum(terms)
    lo, hi = base + n * ln_lo, base + n * ln_hi
    slack = rho + abs(e) * 2.0 ** -53 + 16 * math.ulp(
        sum(map(abs, terms)) + n * max(abs(ln_lo), abs(ln_hi)))
    return math.nextafter(lo - slack, -math.inf), math.nextafter(hi + slack, math.inf)
