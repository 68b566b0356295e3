"""Linear recurrences with polynomial coefficients for exact tables.

With D the exact domain's scale and t_m = D^m s_m (engine docstring),
T(z) = sum t_m z^m solves T = 1 + z P(T), where P(y) = sum_a D w_a y^a
is in Z[y] (w_a the merged weight of arity a).  So T is algebraic, hence
D-finite (Stanley 1980; Bostan, Chyzak, Lecerf, Salvy and Schost, ISSAC
2007), and t satisfies some recurrence

    sum_{i=0..r} p_i(n) t_{n-i} = 0     for every n >= r              (R)

with p_i in Z[n] of degree <= e.  This module finds one from t_0..t_W,
proves it, runs it (engine docstring) and stores it for the cache, with
P read from the spec.

Find.  Rows n <= W = len(t) - 1, columns t_{n-i} n^j ordered by shift
i, then power j <= e.  Mod the first prime of _PRIMES that divides no
weight of P, _eliminate eliminates forward to the first column that
depends on the ones before it: the least order r with a relation of
degree <= e, and the rows of its pivots.  The lift eliminates the square
system on those rows mod all such primes, 8 at a time (a batch whose
first prime loses a pivot is skipped), _back back-substitutes, and CRT
and rational reconstruction give an integer relation.  The first one
whose residual at W is 0 and that Recurrence.holds accepts ("Run.") is
kept; one reconstructed from too few primes fails the one or the other.
Only relations with at most CAP unknowns (r+1)(e+1) are sought, on at
least _MARGIN more rows than unknowns.  The least order does not grow
with e, and the recurrences seen all have e = d - 1 or d, d = deg P
(sum k 1: order 1, degree k - 1), so _shape searches e = d, or e = d - 1
where no shift is left for e = d (sum 32 1), with shifts up to its R.  A
spec with d >= 33 is never searched, and a recurrence missed here only
leaves the table on the engine.  _matrix and _eliminate are the only
code here that imports numpy (_back works on their arrays): proving,
running and resuming a cached recurrence load none.

Run.  Recurrence.step(t), the only evaluation of (R), maps n to
t_n = -(sum_{i>=1} p_i(n) t_{n-i}) / p_0(n) from t_{n-r}..t_{n-1} in the
list t, and raises ArithmeticError on a remainder or p_0(n) = 0.  A
table runs it only at n > W, past the engine's t_0..t_W, so the rule
by which find and a cache load accept (R), Recurrence.holds, asks that
(R) be proved from r ("Prove.") and that p_0(W + 1 + x), expanded in x,
have a positive constant term and no negative coefficient (p_0 > 0).

Persist.  Recurrence.encode is the record of (R) in a cache file
(foldrate.cache): order r, degree e, window W, then the n^0..n^e
coefficients of p_0, ..., p_r, each int in the cache's codec (a u64 byte
length and little-endian two's complement bytes).  decode admits only
the records find could have written: W in engine.WINDOWS, 1 <= r <= R
and 0 <= e at most the degree of _shape at W (d the spec's largest
arity), and W <= n, the table's n, checked before a coefficient is read
or P built; and no coefficient of more than 248 CAP bits.  find
reconstructs from at most 16 primes below 2^31, so its modulus m is
below 2^496 and each _ratrec factor at most isqrt(m/2) < 2^248; a
coefficient is a product of at most k + 1 <= CAP such factors, one per
unknown, and dividing by g only shrinks it.  Recurrence.holds accepts
the record again from the loaded t, so a resumed table skips the search
and never trusts the file for it.

Prove.  Multiplying (R) by z^n and summing over n gives, with
theta = z d/dz,

    sum_i z^i p_i(theta + i) T = Q(z),  Q = sum_{n<r} q_n z^n,        (E)

q_n = sum_i p_i(n) t_{n-i} (t_{<0} = 0), and (E) gives (R) back for
every n >= r, coefficient by coefficient.  The curve y = 1 + z P(y) is
rational: T is the inverse series at y = 1 of z = phi(y) = (y-1)/P(y),
since phi(1) = 0 and phi'(1) = 1/P(1) != 0.  So (E) holds iff it holds
with z = phi(y), T = y and theta = (phi/phi') d/dy = (A/B) d/dy, where
A = (y-1) P and B = P - (y-1) P' (B(1) = P(1) > 0).  Then
theta^k y = N_k / B^(2k), with N_0 = y and
N_{k+1} = A (N_k' B - 2k N_k B'), and (E) times P^r B^(2e) reads

    sum_{i<=r} (y-1)^i P^(r-i) (H_i - q_i B^(2e)) = 0  in Z[y],

with H_i = sum_k d_ik N_k B^(2(e-k)), p_i(x + i) = sum_k d_ik x^k, and
q_r = 0.  The left side is checked at one point y = Y = 2^K,
with no product of polynomials (Kronecker substitution; von zur Gathen
and Gerhard, Modern Computer Algebra, 8.4); each polynomial is
evaluated at Y by shifts.  The l1 norm ||a||, the sum of the
|coefficients|, is submultiplicative and ||y - 1|| = 2, so

    W = sum_i 2^i ||P||^(r-i) (sum_k |d_ik| ||N_k|| ||B||^(2(e-k))
                                + |q_i| ||B||^(2e))

bounds every coefficient of the left side, and K is taken with Y > 2W.
If the left side is not zero, let c_m be its lowest nonzero coefficient:
its value at Y is Y^m (c_m + Y R) with R an integer, and
0 < |c_m| <= W < Y, so Y does not divide c_m and the value is not zero.
So the identity holds iff its value at Y is 0: exact integer
arithmetic, with no bound on how many terms to check.  A relation that
fails it, or whose p_0 is zero, is never used.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .engine import WINDOWS
from .scalars import _int_bytes, _Record, _take_int

__all__ = ["CAP", "Recurrence", "decode", "find", "proved"]

CAP = 64
_MARGIN = 8
# primes below 2^31: a product of two residues fits an int64.  The
# search and the lift take those that divide no weight of P: one that
# divides them all makes every t_n with n >= 1 vanish mod p.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
           2147483353, 2147483323, 2147483269, 2147483249)


class Recurrence(_Record, namedtuple("Recurrence", "coeffs window")):
    """(R): coeffs[i][j] is the n^j coefficient of p_i.  It holds for
    n >= r = len(coeffs) - 1, and the engine supplied t_0..t_window."""

    __slots__ = ()

    def step(self, t):
        """n -> t_n of (R) on the list t, n > window (module docstring, "Run.")."""
        polys = [p[::-1] for p in self.coeffs[::-1]]  # p_r .. p_1, then p_0

        def at(n):
            *c, den = _values(polys, n)
            v, rem = divmod(-sum(map(operator.mul, c, t[n - len(c) : n])), den)
            if rem:
                raise ArithmeticError(f"t_{n} is not an integer: the recurrence does "
                                      f"not hold on the stored values")
            return v

        return at

    def encode(self):
        """(R) as a cache record (module docstring, "Persist.")."""
        ints = [len(self.coeffs) - 1, len(self.coeffs[0]) - 1, self.window]
        return b"".join(map(_int_bytes, ints + [c for p in self.coeffs for c in p]))

    def holds(self, t, spec):
        """Whether (R) is accepted for spec, given t_0..t_{r-1} ("Run.")."""
        p = _shift(self.coeffs[0], self.window + 1)
        return p[0] > 0 and min(p) >= 0 and proved(self.coeffs, t, spec)


def decode(take, spec, n):
    """The Recurrence of the cache record that take(k) reads k bytes at a
    time, for a table of spec at n; or None where find could not have
    written it (module docstring, "Persist.")."""
    r, e, window = (_take_int(take) for _ in range(3))
    shape = window in WINDOWS and _shape(max(spec.merged_weights()[0]), window)
    if not shape or not (1 <= r <= shape[1] and 0 <= e <= shape[0] and window <= n):
        return None
    c = [_take_int(take) for _ in range((r + 1) * (e + 1))]
    if max(map(int.bit_length, c)) > 248 * CAP:  # past any relation find builds
        return None
    return Recurrence(tuple(tuple(c[i : i + e + 1]) for i in range(0, len(c), e + 1)), window)


def _matrix(t, cols, rows, primes):
    """A stack of int64 matrices, one per prime p: column (i, j) is
    t_{n-i} n^j mod p over the rows n."""
    import numpy as np

    ps = np.array(primes, dtype=np.int64)[:, None]
    n = np.array(rows, dtype=np.int64)
    i, j = np.array(cols, dtype=np.int64).T
    powers = np.ones((len(primes), len(rows), j.max() + 1), dtype=np.int64)
    for c in range(1, j.max() + 1):
        powers[:, :, c] = powers[:, :, c - 1] * n % ps
    tm = np.array([[x % p for x in t[: n.max() + 1]] for p in primes], dtype=np.int64)
    X = tm[:, n[:, None] - i]
    X *= powers[:, :, j]
    X %= ps[:, :, None]
    return X


def _eliminate(X, primes):
    """(k, pivot rows, ok) by forward elimination on X, a stack of int64
    matrices, one per prime below 2^31, with the pivot rows chosen mod
    primes[0].  k is the first column that is, mod primes[0], a
    combination of the columns before it (None if there is none), where
    it stops; ok[m] is whether every pivot was nonzero mod primes[m].  X
    is overwritten.  Each update subtracts a product of two residues and
    reduces mod p, so no value held passes 2^62."""
    import numpy as np

    ps = np.array(primes, dtype=np.int64)[:, None]
    order, ok = list(range(X.shape[1])), [True] * len(primes)
    for k in range(X.shape[2]):
        nz = X[0, k:, k].nonzero()[0]
        if not len(nz):
            return k, order[:k], ok
        j = k + int(nz[0])
        if j != k:
            X[:, [k, j]] = X[:, [j, k]]
            order[k], order[j] = order[j], order[k]
        piv = X[:, k, k].tolist()
        ok = [o and v != 0 for o, v in zip(ok, piv)]
        inv = [pow(v, -1, p) if v else 0 for v, p in zip(piv, primes)]
        X[:, k, k:] = X[:, k, k:] * np.array(inv)[:, None] % ps
        X[:, k + 1 :, k + 1 :] -= X[:, k + 1 :, k, None] * X[:, k, None, k + 1 :]
        X[:, k + 1 :, k + 1 :] %= ps[:, :, None]
    return None, order, ok


def _back(X, primes, k):  # the combination in X[:, :k, k], per prime, after _eliminate
    ps = X.dtype.type(primes)[:, None]  # an int64 column, as X
    for j in range(k - 1, 0, -1):  # back-substitution through the unit upper triangle
        X[:, :j, k] = (X[:, :j, k] - X[:, :j, j] * X[:, j : j + 1, k] % ps) % ps
    return X[:, :k, k].tolist()


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


def _values(polys, n):
    """Each polynomial at n by Horner, its coefficients from the top power down."""
    out = []
    for p in polys:
        v = 0
        for a in p:
            v = v * n + a
        out.append(v)
    return out


def _residual(coeffs, t, n):
    return sum(map(operator.mul, _values([reversed(p) for p in coeffs], n), t[n::-1]))


def _shift(p, c):  # p(x + c), both from x^0 up
    return [sum(a * math.comb(j, k) * c ** (j - k) for j, a in enumerate(p) if j >= k)
            for k in range(len(p))]


def _poly(spec):
    """P(y) = sum_a D w_a y^a of the spec's merged weights, from y^0 up."""
    weights, scale = spec.merged_weights()
    return [int(weights.get(a, 0) * scale) for a in range(max(weights) + 1)]


def _shape(d, window):
    """(e, R): the degree and the most shifts find searches at a window in
    engine.WINDOWS when deg P = d (module docstring, "Find."), or None.  At
    48 it admits MIX's order 5 and degree 4 (30 unknowns), at 104 every
    (r+1)(e+1) <= CAP with e >= 1."""
    for e in (d, d - 1):
        R = min(CAP // (e + 1), (window + 2 - _MARGIN) // (e + 2)) - 1
        if R >= 1:
            return e, R
    return None


def find(t, spec):
    """A proved Recurrence for t_0..t_W, the list t; or None."""
    poly, window = _poly(spec), len(t) - 1
    shape = _shape(len(poly) - 1, window)
    primes = [q for q in _PRIMES if all(w % q for w in poly if w)]
    if not shape or not primes:
        return None
    e, R = shape
    cols = [(i, j) for i in range(R + 1) for j in range(e + 1)]
    rows = list(range(R, window + 1))[-len(cols) - _MARGIN :]
    k, pivots, _ = _eliminate(_matrix(t, cols, rows, primes[:1]), primes[:1])
    if not k:
        return None
    cols, rows, r = cols[: k + 1], [rows[i] for i in pivots], cols[k][0]
    residues, modulus = [0] * (k + 1), 1
    for b in range(0, len(primes), 8):
        batch = primes[b : b + 8]
        X = _matrix(t, cols, rows, batch)
        dep, _, ok = _eliminate(X, batch)
        if dep != k:
            continue
        # the relation vector, its last column's coefficient -1
        for p, good, x in zip(batch, ok, _back(X, batch, k)):
            if good:
                inv = pow(modulus, -1, p)
                residues = [a + modulus * ((c - a) * inv % p)
                            for a, c in zip(residues, x + [p - 1])]
                modulus *= p
        den, nums = 1, []
        for a in residues:
            rr = _ratrec(a * den, modulus)
            if rr is None:
                break
            nums = [u * rr[1] for u in nums] + [rr[0]]
            den *= rr[1]
        if len(nums) <= k:
            continue
        coeffs = [[0] * (e + 1) for _ in range(r + 1)]
        for (i, j), u in zip(cols, nums):
            coeffs[i][j] = u
        while len(coeffs[0]) > 1 and not any(c[-1] for c in coeffs):
            coeffs = [c[:-1] for c in coeffs]
        # p_0's leading coefficient positive, and no common factor
        g = math.gcd(*nums) * (-1 if next(filter(None, coeffs[0][::-1]), 0) < 0 else 1)
        rec = Recurrence(tuple(tuple(u // g for u in c) for c in coeffs), window)
        if not _residual(rec.coeffs, t, window) and rec.holds(t, spec):
            return rec
    return None


# -- polynomials in y: int lists from y^0 up ------------------------------


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b, c=1):  # a + c b
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += c * y
    return out


def _deriv(a):
    return [i * x for i, x in enumerate(a)][1:] or [0]


def _norm(a):
    return sum(map(abs, a))


def proved(coeffs, t, spec):
    """Whether (R) with these coefficients holds for every n >= r with p_0
    not zero (module docstring), given t_0..t_{r-1}."""
    poly, r, e, ym1 = _poly(spec), len(coeffs) - 1, len(coeffs[0]) - 1, [-1, 1]
    A, B = _mul(ym1, poly), _add(poly, _mul(ym1, _deriv(poly)), -1)
    dB = _deriv(B)
    N = [[0, 1]]
    for k in range(e):
        N.append(_mul(A, _add(_mul(_deriv(N[k]), B), _mul(N[k], dB), -2 * k)))
    # d[i][k] = d_ik, the x^k coefficients of p_i(x + i), and q[i] = q_i
    d = [_shift(p, i) for i, p in enumerate(coeffs)]
    q = [_residual(coeffs, t, i) for i in range(r)] + [0]
    # W (module docstring) from the l1 norms, then Y = 2^K > 2W
    nP, nB2 = _norm(poly), _norm(B) ** 2
    nF = [_norm(N[k]) * nB2 ** (e - k) for k in range(e + 1)]
    W, nB2e = 0, nB2 ** e
    for i in range(r + 1):
        W = W * nP + ((sum(map(abs, map(operator.mul, d[i], nF))) + abs(q[i]) * nB2e) << i)
    K = W.bit_length() + 1  # Y = 2^K

    def at_Y(poly):
        v = 0
        for c in reversed(poly):
            v = (v << K) + c
        return v

    Pv, B2 = at_Y(poly), at_Y(B) ** 2
    F, B2e = [0] * (e + 1), 1  # F_k = N_k B^(2(e-k)) at Y; B2e ends at B^(2e)
    for k in range(e, -1, -1):
        F[k] = at_Y(N[k]) * B2e
        if k:
            B2e *= B2
    acc, power = 0, 1  # power = (Y-1)^i
    for i in range(r + 1):
        acc = acc * Pv + (sum(map(operator.mul, d[i], F)) - q[i] * B2e) * power
        power = (power << K) - power
    return any(coeffs[0]) and not acc
