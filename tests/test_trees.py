"""Tree enumeration oracle: counts, values, and the subtree-size check."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from foldrate import (
    check_subtree_lemma,
    compute_sequence,
    oracle_summary,
    parse_spec,
    subtree_size_interval,
    tree_values,
)
from foldrate import trees
from foldrate.trees import _lemma_holds, check_tree_budget, tree_counts
from helpers import random_spec, splits, tree_count_total

CATALAN = parse_spec("sum 2 1")
MAX22 = parse_spec("max 2 2")
MIXED = parse_spec("sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6")


def catalan_closed(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def test_tree_counts_follow_catalan():
    for n in range(1, 9):
        assert oracle_summary(CATALAN, n)[0] == catalan_closed(n)
        assert sum(1 for _ in tree_values(CATALAN, n)) == catalan_closed(n)


def test_tree_counts_match_the_enumeration_and_the_engine():
    # the engine counts trees as the all-weight-1, all-sum exact table
    assert tree_counts(CATALAN, 12) == [catalan_closed(n) for n in range(13)]
    assert tree_counts(MIXED, 8)[1:] == [5, 100, 2875, 96875, 3569375, 139287500,
                                         5657515625, 236683046875]
    rng = random.Random(4)
    for _ in range(10):
        spec = random_spec(rng, max_terms=4, max_arity=4)
        counts = tree_counts(spec, 30)
        assert sum(counts[1:]) == tree_count_total(spec, 30), spec.render()
        assert counts[:5] == [1] + [oracle_summary(spec, n)[0] for n in range(1, 5)]


def test_tree_counts_of_a_huge_arity_are_counted_in_its_place():
    # arity L = 10^20: one tree of size 1, L of size 2 (a leaf in one of L
    # slots), and of size 3 L^2 with one child of size 2 and C(L, 2) with
    # two leaf children; counted by powers of C, with nothing that grows
    # with L
    big = 10 ** 20
    assert tree_counts(parse_spec(f"sum {big} 1"), 3) == [1, 1, big, big * big + math.comb(big, 2)]
    with pytest.raises(ValueError, match="sizes 1..2 hold"):
        check_tree_budget(parse_spec(f"sum {big} 1"), 3)


def test_size_one_trees_are_the_terms():
    values = list(tree_values(MIXED, 1))
    assert values == [2, 3, 4, 5, 6]
    assert sum(values) == compute_sequence(MIXED, 1, domain="exact").value(1).value


def test_max22_two_vertex_trees():
    # child in the first or the second slot
    assert list(tree_values(MAX22, 2)) == [4, 4]


def test_enumeration_order_is_deterministic():
    # root term ascending, then the branch-size split ascending: for
    # "sum 1 1/2, sum 2 1/3" at size 2 the unary root comes first
    spec = parse_spec("sum 1 1/2\nsum 2 1/3")
    h, t = Fraction(1, 2), Fraction(1, 3)
    assert list(tree_values(spec, 2)) == [h * h, h * t, t * h, t * t, t * h, t * t]
    assert list(tree_values(MIXED, 4)) == list(tree_values(MIXED, 4))


def test_tree_values_match_enumerated_trees():
    # size 2 by hand: root term i, its one child term j in any of the
    # root's arity-many slots
    weights = [(t.arity, t.weight) for t in MIXED.terms]
    by_hand = [wi * wj for ai, wi in weights for _ in range(ai) for _, wj in weights]
    assert list(tree_values(MIXED, 2)) == by_hand
    for n in range(1, 4):
        values = list(tree_values(MIXED, n))
        assert oracle_summary(MIXED, n) == (len(values), sum(values), max(values))


def test_oracle_sum_equals_engine_for_all_sum_specs():
    for text in ("sum 2 1", "sum 1 1\nsum 2 1", "sum 3 2\nsum 1 1/2"):
        spec = parse_spec(text)
        table = compute_sequence(spec, 6, domain="exact")
        for n in range(1, 7):
            assert oracle_summary(spec, n)[1] == table.value(n).value


def test_oracle_max_equals_engine_for_single_max_term():
    for text in ("max 2 2", "max 3 5", "max 4 1/2"):
        spec = parse_spec(text)
        table = compute_sequence(spec, 5, domain="exact")
        for n in range(1, 6):
            assert oracle_summary(spec, n)[2] == table.value(n).value


def test_oracle_brackets_engine_for_mixed_specs():
    table = compute_sequence(MIXED, 3, domain="exact")
    for n in range(1, 4):
        count, total, best = oracle_summary(MIXED, n)
        s_n = table.value(n).value
        assert best <= s_n <= total


def test_mixed_size_two_summary():
    count, total, best = oracle_summary(MIXED, 2)
    assert count == 100  # 5 roots x (2+3+4+5+6) child placements... per weights
    assert total == 1800  # sum over roots of weight*arity*s_1 = 90*20
    assert best == 36  # two six-weighted vertices


def test_multi_term_max_specs_only_bracket():
    # two identical max terms double s_1 but cannot double any single
    # tree's value, so only the bracket holds for them
    spec = parse_spec("max 2 1\nmax 2 1")
    table = compute_sequence(spec, 3, domain="exact")
    for n in range(1, 4):
        count, total, best = oracle_summary(spec, n)
        assert best <= table.value(n).value <= total
    assert table.value(1).value == 2
    assert oracle_summary(spec, 1)[2] == 1


def test_tree_budget_guard():
    # the budget counts trees, not sizes: MIXED's sizes 1..9 hold more than
    # 10^13 trees and are refused before the first is built, while Catalan
    # at 10 (16,796 trees) runs
    with pytest.raises(ValueError, match="budget"):
        next(tree_values(MIXED, 9))
    with pytest.raises(ValueError, match="sizes 1..6 hold 142,956,730 trees"):
        oracle_summary(MIXED, 6)
    assert oracle_summary(CATALAN, 10)[1] == catalan_closed(10)
    check_tree_budget(MIXED, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="tree size"):
            list(tree_values(CATALAN, n))


def test_tree_budget_is_read_at_each_call(monkeypatch):
    # Catalan's sizes 1..5 hold 64 trees and 1..6 hold 196
    monkeypatch.setattr(trees, "TREE_BUDGET", 100)
    assert oracle_summary(CATALAN, 5)[0] == 42
    with pytest.raises(ValueError, match="sizes 1..6 hold 196 trees"):
        oracle_summary(CATALAN, 6)
    with pytest.raises(ValueError, match="budget of 100"):
        next(tree_values(CATALAN, 7))


def test_subtree_size_interval_values():
    lo, hi = subtree_size_interval(CATALAN, 7)
    assert (lo, hi) == (Fraction(2), Fraction(5))
    lo, hi = subtree_size_interval(MIXED, 8)
    assert (lo, hi) == (Fraction(7, 7), Fraction(49, 7))


def test_subtree_lemma_on_fixtures():
    for spec in (CATALAN, MAX22, MIXED, parse_spec("max 4 3")):
        for n in range(2, 9):
            assert check_subtree_lemma(spec, n)
    for L in (2, 6, 48):  # the size DP needs no cap
        assert check_subtree_lemma(parse_spec(f"sum {L} 1"), 1000)


def test_subtree_lemma_trivial_at_one():
    assert check_subtree_lemma(CATALAN, 1)
    with pytest.raises(ValueError):
        check_subtree_lemma(CATALAN, 0)


def _size_sets(m: int, L: int, memo: dict) -> set:
    """The set of subtree sizes, root included, of each ordered tree with
    m >= 1 vertices and L slots per vertex, each slot empty or a subtree."""
    if m not in memo:
        memo[m] = {
            frozenset().union(*parts) | {m}
            for split in splits(m - 1, L)
            for parts in itertools.product(*(_size_sets(x, L, memo) if x else [frozenset()]
                                             for x in split))
        }
    return memo[m]


def _lemma_by_brute_force(size_sets, n: int, lo, hi) -> bool:
    # every tree has a subtree in [lo, hi] that is proper, unless n = 1
    return all(any(lo <= size <= hi and (size < n or n == 1) for size in sizes)
               for sizes in size_sets)


def test_subtree_lemma_matches_brute_force():
    # the lemma's interval, and every interval with endpoints on the half
    # integers in [0, n + 1], most of them narrowed or shifted until some
    # tree avoids them
    falses = 0
    for L in range(1, 5):
        memo = {}
        for n in range(1, 9):
            size_sets = _size_sets(n, L, memo)
            own = (Fraction(n - 1, L + 1), Fraction(L * n + 1, L + 1))
            assert _lemma_holds(L, n, *own) and _lemma_by_brute_force(size_sets, n, *own)
            ends = [Fraction(x, 2) for x in range(2 * n + 3)]
            for lo, hi in itertools.combinations_with_replacement(ends, 2):
                expected = _lemma_by_brute_force(size_sets, n, lo, hi)
                assert _lemma_holds(L, n, lo, hi) == expected, (L, n, lo, hi)
                falses += not expected
    assert falses > 1000

