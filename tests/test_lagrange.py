"""Certified point values of ln s_n (foldrate.lagrange) against the exact
domain: the true ln s_n, to 60 digits, must lie in every bracket."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from foldrate import compute_sequence, parse_spec, refine
from foldrate.lagrange import _chunk, ln_point, point_bytes
from helpers import MIXED_EXAMPLE, outward_ln_values, random_spec

MIX = parse_spec(MIXED_EXAMPLE)
DEG7 = parse_spec("sum 2 1\nsum 7 3\nmax 3 5")
MAX22 = parse_spec("max 2 2")


def _ln60(q: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def _check(spec, n, exact: Fraction, outward=None):
    """ln_point(spec, n) holds ln exact, meets the exact domain's outward
    bracket and is narrow."""
    lo, hi = ln_point(spec, n)
    assert Decimal(lo) <= _ln60(exact) <= Decimal(hi), (spec.render(), n)
    if outward is not None:
        assert lo <= outward[1] and outward[0] <= hi, (spec.render(), n)
    assert 0 < hi - lo < 1e-9 * max(1.0, abs(lo)), (spec.render(), n, hi - lo)


def _check_table(spec, ns):
    table = compute_sequence(spec, max(ns), domain="exact")
    lo, hi = outward_ln_values(table, -1), outward_ln_values(table, 1)
    for n in ns:
        _check(spec, n, table.value(n).value, (lo[n], hi[n]))


@pytest.mark.parametrize("seed", range(30))
def test_brackets_the_exact_value_on_random_specs(seed):
    rng = random.Random(0x1A6 + seed)
    spec = random_spec(rng, kind=("mixed", "sum", "max")[seed % 3])
    _check_table(spec, range(1, 513))


def test_brackets_the_exact_value_on_deg7():
    _check_table(DEG7, range(1, 257))


def test_brackets_two_to_the_n_with_one_tap():
    # max 2 2 has Phi(u) = 2 + 2u, so d = 1 and s_n = 2^n
    size, carry = _chunk(1)
    for n in [*range(1, 513), size, size + 1, size + carry + 1, 2 * size + 1]:
        _check(MAX22, n, Fraction(2) ** n)


def test_brackets_the_exact_value_at_chunk_edges():
    size, carry = _chunk(4)
    assert (size, carry) == (1024, 32)
    # n - 1 matrices: n = size + 1 fills one chunk, n = size + 2 starts a
    # second with the left-over products in front of it
    _check_table(MIX, [size, size + 1, size + 2, size + carry + 1, 2 * size + 1, 4096])


def test_point_one_is_phi_zero():
    lo, hi = ln_point(MIX, 1)
    assert lo < math.log(20) < hi


def test_point_guards():
    with pytest.raises(ValueError):
        ln_point(MIX, 0)
    with pytest.raises(ValueError):
        ln_point(MIX, 1 << 51)
    # P = 10^-100 y^2 + y: Phi_2 / Phi_0 is about 2^-332, below the
    # guarded range, and refine reports the failure instead of raising
    tiny = parse_spec("sum 2 1/" + "1" + "0" * 100 + "\nmax 3 1")
    with pytest.raises(FloatingPointError):
        ln_point(tiny, 8)
    report = refine(tiny, epsilon=0.5)
    assert not report.converged and report.reason == "float range exceeded"
    assert report.entries == []


def test_point_bytes_grow_with_n_up_to_one_chunk():
    per_matrix = 24 * 4 * 4
    assert point_bytes(MIX, 2) == 2 * per_matrix
    assert point_bytes(MIX, 1 << 20) == point_bytes(MIX, 1 << 12) == (1024 + 32) * per_matrix
