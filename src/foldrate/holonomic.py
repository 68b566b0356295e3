"""Linear recurrences with polynomial coefficients for exact tables.

With D the exact domain's scale and t_m = D^m s_m (engine docstring),
T(z) = sum t_m z^m solves T = 1 + z P(T), where P(y) = sum_a D w_a y^a
is in Z[y] (w_a the merged weight of arity a).  So T is algebraic, hence
D-finite (Stanley 1980; Bostan, Chyzak, Lecerf, Salvy and Schost, ISSAC
2007), and t satisfies some recurrence

    sum_{i=0..r} p_i(n) t_{n-i} = 0     for every n >= n0 >= r        (R)

with p_i in Z[n] of degree <= e.  This module finds one from t_0..t_W
and proves it; the exact domain runs it (engine docstring).

Find.  Rows n <= W, columns t_{n-i} n^j ordered by shift i, then power
j <= e.  Elimination mod a 21-bit prime that divides no weight of P
(numpy int64) stops at the first column that depends on the ones before
it, which gives the least order r with a relation of degree <= e.  The
same square system mod up to 16 primes of 31 bits, 8 at a time, CRT and
rational reconstruction give the integer relation, which must then hold
exactly on every row n in [r, W]; n0 is the least n from which it
does.  Only relations with at most CAP unknowns (r+1)(e+1) are sought,
on at least _MARGIN more rows than unknowns.  The least order does not
grow with e, and the recurrences seen all have e = d - 1 or d,
d = deg P (sum k 1: order 1, degree k - 1), so e = d is searched, or
e = d - 1 where no shift is left for e = d (sum 32 1).  A spec with
d >= 33 is never searched, and a recurrence missed here only leaves the
table on the engine.  The search's three helpers are the only code here
that uses numpy, and each imports it: proving, running and resuming a
cached recurrence load none.

Prove.  Multiplying (R) by z^n and summing over n gives, with
theta = z d/dz,

    sum_i z^i p_i(theta + i) T = Q(z),  Q = sum_{n<n0} q_n z^n,       (E)

q_n = sum_i p_i(n) t_{n-i} (t_{<0} = 0), and (E) gives (R) back for
every n >= n0, coefficient by coefficient.  The curve y = 1 + z P(y) is
rational: T is the inverse series at y = 1 of z = phi(y) = (y-1)/P(y),
since phi(1) = 0 and phi'(1) = 1/P(1) != 0.  So (E) holds iff it holds
with z = phi(y), T = y and theta = (phi/phi') d/dy = (A/B) d/dy, where
A = (y-1) P and B = P - (y-1) P' (B(1) = P(1) > 0).  Then
theta^k y = N_k / B^(2k), with N_0 = y and
N_{k+1} = A (N_k' B - 2k N_k B'), and (E) times P^n0 B^(2e) reads

    sum_{i<=n0} (y-1)^i P^(n0-i) (H_i - q_i B^(2e)) = 0  in Z[y],

with H_i = sum_k d_ik N_k B^(2(e-k)), p_i(x + i) = sum_k d_ik x^k, and
H_i = 0 for i > r.  The left side is checked at one point y = Y = 2^K,
with no product of polynomials (Kronecker substitution; von zur Gathen
and Gerhard, Modern Computer Algebra, 8.4).  The l1 norm ||a||, the sum
of the |coefficients|, is submultiplicative and ||y - 1|| = 2, so

    W = sum_i 2^i ||P||^(n0-i) (sum_k |d_ik| ||N_k|| ||B||^(2(e-k))
                                + |q_i| ||B||^(2e))

bounds every coefficient of the left side, and K is taken with Y > 2W.
If the left side is not zero, let c_m be its lowest nonzero coefficient:
its value at Y is Y^m (c_m + Y R) with R an integer, and
0 < |c_m| <= W < Y, so Y does not divide c_m and the value is not zero.
So the identity holds iff its value at Y is 0: exact integer
arithmetic, with no bound on how many terms to check.  A relation that
fails it is never used.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = ["CAP", "WINDOWS", "Recurrence", "find", "proved"]

# At each window W that an extend crosses, a table still on the engine
# holds t_0..t_W and searches once.  48 admits MIX's order 5 and degree 4
# (30 unknowns); 104 admits every (r+1)(e+1) <= CAP with e >= 1.
CAP = 64
WINDOWS = (48, 104)
_MARGIN = 8
# the search's primes, below 2^21 (_first_dependent), and the lifting
# primes, below 2^31: a product of two residues fits an int64.  The
# search takes the first that divides no weight of P: one that divides
# them all makes every t_n with n >= 1 vanish mod p.
_SEARCH_PRIMES = (2097143, 2097133, 2097131)
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
           2147483353, 2147483323, 2147483269, 2147483249)


@dataclass(frozen=True)
class Recurrence:
    """(R): coeffs[i][j] is the n^j coefficient of p_i.  It holds for
    n >= start, and the engine supplied t_0..t_window."""

    coeffs: tuple
    start: int
    window: int


def _matrix(t, cols, rows, p):
    """Column (i, j) is t_{n-i} n^j mod p over the rows n."""
    import numpy as np

    n = np.array(rows, dtype=np.int64)
    i, j = np.array(cols, dtype=np.int64).T
    powers = np.ones((len(rows), j.max() + 1), dtype=np.int64)
    for c in range(1, j.max() + 1):
        powers[:, c] = powers[:, c - 1] * n % p
    tm = np.array([x % p for x in t[: n.max() + 1]], dtype=np.int64)
    return tm[n[:, None] - i] * powers[:, j] % p


def _first_dependent(M, p):
    """(k, pivot rows): k is the first column of M that is, mod p, a
    combination of the columns before it, whose pivots are in those rows;
    None if the columns are independent.  M is overwritten.  Only the
    pivot column and row are reduced mod p: with p < 2^21, each step adds
    less than 2^42 to an entry, so 64 steps stay inside an int64."""
    import numpy as np

    order = list(range(len(M)))
    for k in range(M.shape[1]):
        col = M[k:, k] % p
        nz = col.nonzero()[0]
        if not len(nz):
            return k, order[:k]
        j = k + int(nz[0])
        if j != k:
            M[[k, j]] = M[[j, k]]
            col[[0, j - k]] = col[[j - k, 0]]
            order[k], order[j] = order[j], order[k]
        M[k + 1 :, k:] -= np.outer(col[1:], M[k, k:] % p * pow(int(col[0]), -1, p) % p)
    return None


def _solutions(t, cols, rows):
    """For each prime p: x with sum_{c<k} x_c col_c = col_k mod p on the
    k = len(rows) rows, or None where a pivot vanishes mod p; by
    Gauss-Jordan elimination on 8 primes at a time."""
    import numpy as np

    k = len(rows)
    for b in range(0, len(_PRIMES), 8):
        primes = _PRIMES[b : b + 8]
        ps = np.array(primes, dtype=np.int64)[:, None]
        X = np.stack([_matrix(t, cols, rows, p) for p in primes])
        ok = [True] * len(primes)
        for j in range(k):
            piv = X[:, j, j].tolist()
            ok = [o and v != 0 for o, v in zip(ok, piv)]
            inv = [pow(v, -1, p) if v else 0 for v, p in zip(piv, primes)]
            X[:, j, j:] = X[:, j, j:] * np.array(inv)[:, None] % ps
            f = X[:, :, j].copy()
            f[:, j] = 0
            X[:, :, j:] -= f[:, :, None] * X[:, j : j + 1, j:]
            X[:, :, j:] %= ps[:, :, None]
        for p, good, x in zip(primes, ok, X[:, :, k].tolist()):
            yield p, good and x


def _ratrec(a, m):
    """(u, v) with u/v = a mod m and |u|, 0 < v <= sqrt(m/2); None if none."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not 0 < abs(s1) <= bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(t, cols, rows):
    """Integer relation vectors over cols (the last column's coefficient
    negative), reconstructed from more and more primes: each one that
    two successive prime counts agree on."""
    residues, modulus, last = None, 1, None
    for p, x in _solutions(t, cols, rows):
        if not x:
            continue
        x.append(p - 1)
        if residues is None:
            residues = x
        else:
            inv = pow(modulus, -1, p)
            residues = [a + modulus * ((b - a) * inv % p) for a, b in zip(residues, x)]
        modulus *= p
        den, nums = 1, []
        for a in residues:
            rr = _ratrec(a * den, modulus)
            if rr is None:
                nums = None
                break
            nums = [u * rr[1] for u in nums]
            den *= rr[1]
            nums.append(rr[0])
        if nums and nums == last:
            yield nums
        last = nums


def _value(poly, n):
    v = 0
    for a in reversed(poly):
        v = v * n + a
    return v


def _residual(coeffs, t, n):
    return sum(_value(p, n) * t[n - i] for i, p in enumerate(coeffs) if i <= n)


def _poly(pairs):
    """P(y) from the exact domain's (D w_a, a - 1) pairs, from y^0 up."""
    poly = [0] * (pairs[-1][1] + 2)
    for w, i in pairs:
        poly[i + 1] = w
    return poly


def find(t, pairs, window):
    """A proved Recurrence for t, whose t_0..t_window are given, with P
    from the exact domain's pairs; or None."""
    poly = _poly(pairs)
    d = len(poly) - 1
    for e in (d, d - 1):
        R = min(CAP // (e + 1), (window + 2 - _MARGIN) // (e + 2)) - 1
        if R >= 1:
            break
    else:
        return None
    p = next((q for q in _SEARCH_PRIMES if all(w % q for w, _ in pairs)), None)
    cols = [(i, j) for i in range(R + 1) for j in range(e + 1)]
    rows = list(range(R, window + 1))[-len(cols) - _MARGIN :]
    dep = p and _first_dependent(_matrix(t, cols, rows, p), p)
    if not dep or not dep[0]:
        return None
    k, pivots = dep
    nums = next(_lift(t, cols[: k + 1], [rows[i] for i in pivots]), None)
    if nums is None:
        return None
    r = cols[k][0]
    coeffs = [[0] * (e + 1) for _ in range(r + 1)]
    for (i, j), u in zip(cols, nums):
        coeffs[i][j] = u
    while len(coeffs[0]) > 1 and not any(c[-1] for c in coeffs):
        coeffs = [c[:-1] for c in coeffs]
    if not any(coeffs[0]):
        return None
    # p_0's leading coefficient positive, and no common factor
    g = math.gcd(*nums) * (1 if [u for u in coeffs[0] if u][-1] > 0 else -1)
    coeffs = tuple(tuple(u // g for u in c) for c in coeffs)
    bad = [n for n in range(r, window + 1) if _residual(coeffs, t, n)]
    start = bad[-1] + 1 if bad else r
    if start <= rows[0] and proved(coeffs, start, t, pairs):
        return Recurrence(coeffs, start, window)
    return None


# -- polynomials in y: int lists from y^0 up ------------------------------


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b, c=1):
    """a + c b."""
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += c * y
    return out


def _deriv(a):
    return [i * x for i, x in enumerate(a)][1:] or [0]


def _norm(a):
    return sum(map(abs, a))


def proved(coeffs, start, t, pairs):
    """Whether (R) with these coefficients holds for every n >= start
    (module docstring), given t_0..t_{start-1} and P from the pairs."""
    poly, r, e = _poly(pairs), len(coeffs) - 1, len(coeffs[0]) - 1
    ym1 = [-1, 1]
    A, B = _mul(ym1, poly), _add(poly, _mul(ym1, _deriv(poly)), -1)
    dB = _deriv(B)
    N = [[0, 1]]
    for k in range(e):
        N.append(_mul(A, _add(_mul(_deriv(N[k]), B), _mul(N[k], dB), -2 * k)))
    # d[i][k] = d_ik, the x^k coefficients of p_i(x + i), and q[i] = q_i
    d = [[sum(c * math.comb(j, k) * i ** (j - k) for j, c in enumerate(coeffs[i]) if j >= k)
          for k in range(e + 1)] if i <= r else [] for i in range(start + 1)]
    q = [_residual(coeffs, t, i) for i in range(start)] + [0]
    # W (module docstring) from the l1 norms, then Y = 2^K > 2W
    nP, nB2 = _norm(poly), _norm(B) ** 2
    nF = [_norm(N[k]) * nB2 ** (e - k) for k in range(e + 1)]
    W, nB2e = 0, nB2 ** e
    for i in range(start + 1):
        W = W * nP + ((sum(map(abs, map(operator.mul, d[i], nF))) + abs(q[i]) * nB2e) << i)
    Y = 1 << (W.bit_length() + 1)
    Pv, B2 = _value(poly, Y), _value(B, Y) ** 2
    F, B2e = [0] * (e + 1), 1  # F_k = N_k B^(2(e-k)) at Y; B2e ends at B^(2e)
    for k in range(e, -1, -1):
        F[k] = _value(N[k], Y) * B2e
        if k:
            B2e *= B2
    acc, power = 0, 1  # power = (Y-1)^i
    for i in range(start + 1):
        acc = acc * Pv + (sum(map(operator.mul, d[i], F)) - q[i] * B2e) * power
        power *= Y - 1
    return not acc
