"""Certified point values of ln s_n (foldrate.lagrange) against the exact
domain: the true ln s_n, to 60 digits, must lie in every bracket."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from foldrate import MemoryBudgetError, compute_sequence, engine, lagrange, parse_spec, refine
from foldrate.lagrange import _chunk, points
from helpers import MIXED_EXAMPLE, outward_ln_values, random_spec

MIX = parse_spec(MIXED_EXAMPLE)
DEG7 = parse_spec("sum 2 1\nsum 7 3\nmax 3 5")
MAX22 = parse_spec("max 2 2")


def _ln60(q: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def _check(spec, n, exact: Fraction, outward=None):
    """points(spec)(n) holds ln exact, meets the exact domain's outward
    bracket and is narrow."""
    lo, hi = points(spec)(n)
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


@pytest.mark.parametrize("text,pairs", [("max 2 2", 16384), (MIXED_EXAMPLE, 1024),
                                        ("sum 100 1", 2)], ids=["d1", "mix", "size2"])
def test_brackets_the_exact_value_at_pair_chunk_edges(text, pairs):
    # a chunk holds size pairs M_(k+1) M_k, so 2 size companions; n - 1
    # companions: one full chunk, an odd one out carried unpaired, carry
    # left-over products in front of a second chunk, and n = 3, one pair
    spec = parse_spec(text)
    d = max(spec.merged_weights()[0])
    size, carry = _chunk(d)
    assert size == pairs
    ns = [3] + [m + 1 for m in (2 * size - 1, 2 * size, 2 * size + 1,
                                2 * size + 2 * carry + 1, 4 * size + 1)]
    if d == 1:  # s_n = 2^n
        for n in ns:
            _check(spec, n, Fraction(2) ** n)
    else:
        _check_table(spec, ns)


def test_point_one_is_phi_zero():
    lo, hi = points(MIX)(1)
    assert lo < math.log(20) < hi


def test_point_guards():
    point = points(MIX)
    with pytest.raises(ValueError):
        point(0)
    with pytest.raises(ValueError):
        point(1 << 51)
    # P = 10^-100 y^2 + y: Phi_2 / Phi_0 is about 2^-332, below the
    # guarded range, and refine reports the failure instead of raising
    tiny = parse_spec("sum 2 1/" + "1" + "0" * 100 + "\nmax 3 1")
    with pytest.raises(FloatingPointError):
        points(tiny)(8)
    report = refine(tiny, epsilon=0.5)
    assert not report.converged and report.reason == "float range exceeded"
    assert report.entries == []


def test_point_bytes_grow_with_n_up_to_one_chunk(monkeypatch):
    # read off the refusals under a zero budget
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 0)
    per_matrix = 24 * 4 * 4
    point = points(MIX)
    for n, need in [(2, 2 * per_matrix), (1 << 12, 1056 * per_matrix),
                    (1 << 20, 1056 * per_matrix)]:
        with pytest.raises(MemoryBudgetError, match=f"point n={n} needs ~{need} bytes"):
            point(n)


def test_points_refuse_past_the_budget_before_any_work(monkeypatch):
    # the budget is read at each call; a refused first point forms no taps
    def no_taps(spec):
        raise AssertionError("taps formed for a refused point")

    monkeypatch.setattr(lagrange, "_taps", no_taps)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 2 * 24 * 4 * 4 - 1)
    with pytest.raises(MemoryBudgetError, match="point n=2 needs ~768 bytes"):
        points(MIX)(2)
    monkeypatch.undo()
    point = points(MIX)
    point(2)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 2 * 24 * 4 * 4)
    assert point(2) == points(MIX)(2)
    with pytest.raises(MemoryBudgetError):
        point(3)
