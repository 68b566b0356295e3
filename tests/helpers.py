"""Shared builders and inequality checkers for the test suite, and a
fresh interpreter for tests of what a process loads or prints."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from foldrate import Op, RecurrenceSpec, Term, compute_sequence, derive_constants
from foldrate.scalars import ln_fraction, ln_ratio

MIXED_EXAMPLE = "sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def fresh_python(*args, start=subprocess.run, **kwargs):
    """``start([python, *args], **kwargs)``, start being subprocess.run or
    subprocess.Popen: a fresh interpreter that imports foldrate from this
    checkout's src/, put in front of any PYTHONPATH.  An unset PYTHONPATH
    adds no empty entry, which would put the working directory on
    sys.path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return start([sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, **kwargs)


def cache_int(v: int) -> bytes:
    """An exact int as a cache file stores it (foldrate.cache docstring):
    a u64 byte length, then little-endian two's complement bytes."""
    b = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
    return len(b).to_bytes(8, "little") + b


def strict_json(text: str):
    """json.loads(text), refusing NaN, Infinity and -Infinity: RFC 8259
    JSON has no such number."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def outward_ln_values(table, side: int) -> list[float]:
    """ln s_0..ln s_n of an exact table, each rounded down (side -1) or up
    (side 1) from its exact t_m / D^m (scalars.ln_ratio)."""
    t, scale = table.scaled_values(table.n)
    return [ln_ratio(v, scale ** m, side) for m, v in enumerate(t)]


def random_spec(rng: random.Random, max_terms: int = 4, max_arity: int = 5,
                max_weight: int = 8, kind: str = "mixed") -> RecurrenceSpec:
    """A random valid spec with at least one term of arity >= 2.

    kind: "sum" (all sum terms), "max" (one max term), "mixed" (anything).
    Weights are rationals in (0, max_weight].
    """
    def weight():
        den = rng.choice((1, 1, 1, 2, 3, 4))
        return Fraction(rng.randint(1, max_weight * den), den)

    if kind == "max":
        # equality with the max oracle needs a single term (see test_trees)
        return RecurrenceSpec((Term(Op.MAX, rng.randint(2, max_arity), weight()),))
    count = rng.randint(2 if kind == "mixed" else 1, max_terms)
    terms = []
    for i in range(count):
        op = Op.SUM if kind == "sum" else rng.choice((Op.SUM, Op.MAX))
        if kind == "mixed" and i < 2:
            op = (Op.SUM, Op.MAX)[i]  # guarantee one of each family
        arity = rng.randint(1, max_arity)
        if i == count - 1 and all(t.arity < 2 for t in terms) and arity < 2:
            arity = rng.randint(2, max_arity)
        terms.append(Term(op, arity, weight()))
    rng.shuffle(terms)
    return RecurrenceSpec(tuple(terms))


def spec_kind(spec: RecurrenceSpec) -> str:
    ops = {t.op for t in spec.terms}
    if ops == {Op.SUM}:
        return "sum"
    if ops == {Op.MAX}:
        return "max"
    return "mixed"


def splits(m: int, j: int):
    """Every ordered split x_1 + ... + x_j = m into j nonnegative parts."""
    if j == 1:
        yield (m,)
        return
    for x in range(m + 1):
        for rest in splits(m - x, j - 1):
            yield (x, *rest)


def split_reduce(reduce, s, m: int, j: int):
    """``reduce`` (sum or max) over the splits of m into j parts of the
    product of s at the parts."""
    return reduce(math.prod(s[x] for x in split) for split in splits(m, j))


def brute_force_values(spec: RecurrenceSpec, n_max: int) -> list[Fraction]:
    """s_0..s_{n_max} as Fractions straight from the definition: each term
    reduces over every split of n - 1, with no fold tables."""
    s = [Fraction(1)]
    for n in range(1, n_max + 1):
        s.append(sum(t.weight * split_reduce(sum if t.op is Op.SUM else max, s, n - 1, t.arity)
                     for t in spec.terms))
    return s


def tree_count_total(spec: RecurrenceSpec, n_max: int) -> int:
    """Total number of labelled trees of sizes 1..n_max.

    Counting trees is the same recurrence with every weight set to 1 and
    every operator made a sum, so the engine computes it directly.
    """
    unit = RecurrenceSpec(tuple(Term(Op.SUM, t.arity, Fraction(1)) for t in spec.terms))
    table = compute_sequence(unit, n_max, domain="exact")
    return sum(int(table.value(n).value) for n in range(1, n_max + 1))


# -- inequality suites ---------------------------------------------------
#
# Each checker returns the number of violating index combinations, so a
# passing table yields 0.  Exact tables are compared with rational
# arithmetic where the inequality is rational; log tables compare ln
# values with the given slack.


def violations_supermulti(table, slack: float = 0.0) -> int:
    """kstar * s_u * s_v <= s_{u+v+1} for all u + v + 1 <= table.n."""
    spec = table.spec
    kstar = spec.kstar
    bad = 0
    if table.domain_name == "exact":
        s = [table.value(i).value for i in range(table.n + 1)]
        for u in range(table.n):
            for v in range(table.n - u):
                if kstar * s[u] * s[v] > s[u + v + 1]:
                    bad += 1
        return bad
    lnS = table.ln_values()
    ln_kstar = ln_fraction(kstar)
    for w in range(1, table.n + 1):
        m = w - 1
        best = float((lnS[: m + 1] + lnS[m::-1]).max())
        if ln_kstar + best > lnS[w] + slack:
            bad += 1
    return bad


def violations_history(table, slack: float = 0.0) -> int:
    """s_n <= L * (n-1) * s_1 * s_{n-1} for all 2 <= n <= table.n."""
    spec = table.spec
    L = spec.max_arity
    s1 = spec.weight_sum
    bad = 0
    if table.domain_name == "exact":
        s = [table.value(i).value for i in range(table.n + 1)]
        for n in range(2, table.n + 1):
            if s[n] > L * (n - 1) * s1 * s[n - 1]:
                bad += 1
        return bad
    lnS = table.ln_values()
    ln_s1 = ln_fraction(s1)
    for n in range(2, table.n + 1):
        if lnS[n] > math.log(L * (n - 1)) + ln_s1 + lnS[n - 1] + slack:
            bad += 1
    return bad


def _decompose_range(n: int, L: int) -> range:
    lo = Fraction(n - 1, L + 1)
    hi = Fraction(L * n + 1, L + 1)
    return range(math.ceil(lo), math.floor(hi) + 1)


def violations_decompose(table, slack: float = 0.0) -> int:
    """All-sum decomposition bound: s_n <= sum over i in the subtree-size
    interval of L * (n-i) * s_{n-i} * s_i, for 2 <= n <= table.n.
    """
    spec = table.spec
    assert spec_kind(spec) == "sum", "the decomposition bound needs an all-sum spec"
    L = spec.max_arity
    bad = 0
    if table.domain_name == "exact":
        s = [table.value(i).value for i in range(table.n + 1)]
        for n in range(2, table.n + 1):
            rhs = sum(L * (n - i) * s[n - i] * s[i] for i in _decompose_range(n, L))
            if s[n] > rhs:
                bad += 1
        return bad
    lnS = table.ln_values()
    for n in range(2, table.n + 1):
        idx = np.array(_decompose_range(n, L), dtype=np.int64)
        parts = np.log(L * (n - idx).astype(np.float64)) + lnS[n - idx] + lnS[idx]
        rhs = float(np.logaddexp.reduce(parts))
        if lnS[n] > rhs + slack:
            bad += 1
    return bad


def violations_submulti(table, slack: float = 0.0) -> int:
    """Submultiplicative transform: for 1 <= n <= table.n and 0 <= m <= n,
    s_n <= (s1 * L^2 * n^3 / kstar)^(alpha * ln n) * s_m * s_{n-m},
    compared in ln space (the prefactor is irrational).
    """
    spec = table.spec
    consts = derive_constants(spec)
    ln_ratio_base = ln_fraction(consts.s1 * consts.max_arity ** 2 / consts.kstar)
    lnS = table.ln_values()
    bad = 0
    for n in range(1, table.n + 1):
        pref = consts.alpha * math.log(n) * (ln_ratio_base + 3.0 * math.log(n))
        lhs = lnS[n] - pref - slack
        pairs = lnS[: n + 1] + lnS[n::-1]
        bad += int((pairs < lhs).sum())
    return bad


# -- closed-form rate oracle ---------------------------------------------
#
# Every max fold of s is s_m (engine docstring), so a max term of weight k
# acts as k * s_{n-1} and S(z) = sum s_n z^n solves S = 1 + z P(S) with
#
#     P(y) = sum over sum terms of k * y^arity + (sum of max weights) * y.
#
# The rate is then read off P alone, by the smooth implicit-function
# schema (Flajolet & Sedgewick, Analytic Combinatorics, ch. VII): when
# deg P >= 2 the singularity of S sits where z = (y - 1) / P(y) peaks, at
# the unique root tau > 1 of f(y) = (y - 1) P'(y) - P(y), and the rate is
# P(tau) / (tau - 1) = min over y > 1 of P(y) / (y - 1).  When deg P = 1,
# s_n = P(1)^n.  Nothing here calls the package: exact Fractions only.


def rate_polynomial(spec: RecurrenceSpec) -> dict[int, Fraction]:
    """P's coefficients keyed by degree."""
    coeffs: dict[int, Fraction] = {}
    for t in spec.terms:
        degree = t.arity if t.op.value == "sum" else 1
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + t.weight
    return coeffs


def _poly(coeffs, y: Fraction) -> Fraction:
    return sum((c * y ** d for d, c in coeffs.items()), Fraction(0))


def oracle_rate_interval(spec: RecurrenceSpec, width: Fraction = Fraction(1, 10 ** 30)):
    """Rational (lo, hi) with lo <= rate <= hi, from P alone.

    For deg P >= 2, bisection keeps a < tau < b until b - a <= width, and
    as P increases, P(a) / (b - 1) <= P(tau) / (tau - 1) <= P(b) / (b - 1),
    the right side holding because tau minimises P(y) / (y - 1).
    """
    coeffs = rate_polynomial(spec)
    if max(coeffs) == 1:
        rate = _poly(coeffs, Fraction(1))
        return rate, rate
    deriv = {d - 1: d * c for d, c in coeffs.items()}

    def f(y):
        return (y - 1) * _poly(deriv, y) - _poly(coeffs, y)

    # f(1) = -P(1) < 0, f' = (y - 1) P'' > 0 on y > 1, and f grows without bound
    a, b = Fraction(1), Fraction(2)
    while f(b) < 0:
        a, b = b, 2 * b
    while b - a > width:
        mid = (a + b) / 2
        if f(mid) < 0:
            a = mid
        else:
            b = mid
    return _poly(coeffs, a) / (b - 1), _poly(coeffs, b) / (b - 1)


# -- the recurrence proof by polynomial products ---------------------------


def proved_by_lists(coeffs, t, spec) -> bool:
    """holonomic.proved's identity built coefficient by coefficient: the
    left side of the holonomic docstring's identity in Z[y] as an int
    list, from y^0 up, by schoolbook products, then tested for zero.  Past
    P, read off the spec's merged weights, it shares no code with the
    package."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def add(a, b, c=1):
        out = a + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += c * y
        return out

    def deriv(a):
        return [i * x for i, x in enumerate(a)][1:] or [0]

    def residual(n):
        return sum(sum(c * n ** j for j, c in enumerate(p)) * t[n - i]
                   for i, p in enumerate(coeffs) if i <= n)

    weights, scale = spec.merged_weights()
    poly = [0] * (max(weights) + 1)
    for a, w in weights.items():
        poly[a] = int(w * scale)
    r, e, ym1 = len(coeffs) - 1, len(coeffs[0]) - 1, [-1, 1]
    A, B = mul(ym1, poly), add(poly, mul(ym1, deriv(poly)), -1)
    dB, B2 = deriv(B), mul(B, B)
    N = [[0, 1]]
    for k in range(e):
        N.append(mul(A, add(mul(deriv(N[k]), B), mul(N[k], dB), -2 * k)))
    F, B2e = [None] * (e + 1), [1]  # F_k = N_k B^(2(e-k)); B2e ends at B^(2e)
    for k in range(e, -1, -1):
        F[k] = mul(N[k], B2e)
        if k:
            B2e = mul(B2e, B2)
    acc, power = [0], [1]  # power = (y-1)^i
    for i in range(r + 1):
        G = [0]
        for k in range(e + 1):
            d_ik = sum(c * math.comb(j, k) * i ** (j - k)
                       for j, c in enumerate(coeffs[i]) if j >= k)
            G = add(G, F[k], d_ik)
        if i < r:
            G = add(G, B2e, -residual(i))
        acc = add(mul(acc, poly), mul(G, power))
        power = mul(power, ym1)
    return not any(acc)
