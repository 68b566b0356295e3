"""Exhaustive tree enumeration: the independent cross-check for the engine.

A sequence value can be read off a family of labelled trees: every vertex
carries one term of the recurrence and exactly arity-many ordered branches,
each branch either empty or another such tree.  A tree's value is the
product of its vertex weights.  Summing values over all trees with n
vertices reproduces s_n exactly when every term is a sum term, and the
maximum over values reproduces s_n when the recurrence is a single max
term; for mixed recurrences the two aggregates bracket s_n.

The value oracle is deliberately brute force - streamed enumeration with
no memoisation - so that agreement with the convolution engine is
evidence, not circularity.  Its cost is the number of trees, which grows
exponentially with their size, so one budget bounds every enumeration:
check_tree_budget refuses sizes 1..n that hold more than TREE_BUDGET trees
before any tree is built, and tree_values, oracle_summary and the command
line's oracle all call it.  The subtree lemma depends on subtree sizes
alone, and check_subtree_lemma decides it by a dynamic programme over
sizes, unbudgeted.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .recurrence import RecurrenceSpec

__all__ = [
    "TREE_BUDGET",
    "check_subtree_lemma",
    "check_tree_budget",
    "oracle_summary",
    "subtree_size_interval",
    "tree_counts",
    "tree_values",
]

# The most trees that sizes 1..n may hold for an enumeration through size n,
# read by check_tree_budget at each call: about a minute and a half at the
# 1.2 * 10^5 trees per second that oracle_summary reaches on the paper's
# mixed spec (2-core Xeon, Python 3.11), whose sizes 1..5 (3,669,230
# trees) it admits and 1..6 (142,956,730) refuses.
TREE_BUDGET = 10 ** 7


def _compositions(total: int, parts: int):
    """Ordered nonnegative integer splits, lexicographically ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_size(n: int):
    if n < 1:
        raise ValueError(f"tree size must be >= 1, got {n}")


def check_tree_budget(spec: RecurrenceSpec, n: int) -> None:
    """Raise ValueError if sizes 1..n hold more than TREE_BUDGET trees.

    Every spec has a term of arity >= 2 (RecurrenceSpec checks it), so
    c_m >= 2 c_(m-1) for m >= 2 and sizes 1..m hold at least 2^m - 1
    trees, past the budget from m = TREE_BUDGET.bit_length() + 1 on: the
    count goes no further, whatever n is.
    """
    counts = tree_counts(spec, min(n, TREE_BUDGET.bit_length() + 1))
    for m, total in enumerate(itertools.accumulate(counts[1:]), 1):
        if total > TREE_BUDGET:
            raise ValueError(f"sizes 1..{m} hold {total:,} trees, "
                             f"over the budget of {TREE_BUDGET:,}")


def _scaled_values(spec: RecurrenceSpec, n: int):
    """(D**n, iterator over D**n times each tree value) for trees of size n.

    D is the lcm of the weight denominators, so every vertex weight enters
    as the integer D*k and a tree's product never needs a Fraction.
    """
    _check_size(n)
    check_tree_budget(spec, n)
    scale = math.lcm(*(t.weight.denominator for t in spec.terms))
    plan = [(t.arity, t.weight.numerator * (scale // t.weight.denominator))
            for t in spec.terms]

    def values(m):
        for arity, weight in plan:
            for sizes in _compositions(m - 1, arity):
                yield from scaled(sizes, 0, weight)

    def scaled(sizes, at, acc):
        if at == len(sizes):
            yield acc
            return
        size = sizes[at]
        if size == 0:
            yield from scaled(sizes, at + 1, acc)
            return
        for v in values(size):
            yield from scaled(sizes, at + 1, acc * v)

    return scale ** n, values(n)


def tree_values(spec: RecurrenceSpec, n: int):
    """Yield the value of every tree with n vertices, one per tree.

    Order: root term index ascending, then the branch-size split
    lexicographically, then recursively the same within each branch.
    """
    den, values = _scaled_values(spec, n)
    for v in values:
        yield Fraction(v, den)


def oracle_summary(spec: RecurrenceSpec, n: int):
    """(count, sum of values, max of values) over all trees with n vertices.

    The sum equals s_n for all-sum recurrences, the max equals s_n for a
    single max term, and for anything else the two bracket s_n.
    """
    den, values = _scaled_values(spec, n)
    count = total = best = 0
    for v in values:
        count += 1
        total += v
        if v > best:
            best = v
    return count, Fraction(total, den), Fraction(best, den)


def tree_counts(spec: RecurrenceSpec, n: int) -> list[int]:
    """[c_0, ..., c_n]: c_m trees with m vertices, c_0 = 1 the empty branch.

    A vertex of arity l has l ordered branches whose sizes add to m - 1,
    so c_m is the sum over the terms of [z^(m-1)] C(z)^l, C = sum c_m z^m,
    and Miller's power recurrence (Knuth, TAOCP 4.7) gives b = C^l with no
    list as long as l: b_0 = 1, k b_k = sum_(1<=j<=k) ((l+1) j - k) c_j b_(k-j).
    """
    arities = [t.arity for t in spec.terms]
    c, powers = [1], {a: [1] for a in arities}
    for k in range(1, n + 1):
        c.append(sum(powers[a][k - 1] for a in arities))
        for l, b in powers.items():
            b.append(sum(((l + 1) * j - k) * c[j] * b[k - j] for j in range(1, k + 1)) // k)
    return c


# -- subtree size interval ----------------------------------------------


def subtree_size_interval(spec: RecurrenceSpec, n: int) -> tuple[Fraction, Fraction]:
    """Closed interval that must contain some subtree size, L = max arity."""
    L = spec.max_arity
    return Fraction(n - 1, L + 1), Fraction(L * n + 1, L + 1)


def _lemma_holds(L: int, n: int, lo, hi) -> bool:
    """check_subtree_lemma on the closed interval [lo, hi], for trees with
    n >= 1 vertices and at most L children per vertex.

    Let A be the sizes m of trees whose every subtree size, their own
    included, lies outside [lo, hi].  m is in A iff m lies outside and
    m - 1 is a sum of at most L members of A (of none for a leaf).  The
    lemma fails at n >= 2 iff n - 1 is such a sum.  Bit t of sums[k] marks
    t as a sum of k members, and each member costs L shifts: O(L*n).
    """
    if n == 1:
        return lo <= 1 <= hi
    mask = (1 << n) - 1
    sums = [1] + [0] * L
    reach = 1  # the union of sums
    for m in range(1, n):
        if reach >> (m - 1) & 1 and not lo <= m <= hi:
            for k in range(1, L + 1):  # k ascending: sums[k - 1] may hold m already
                sums[k] |= sums[k - 1] << m & mask
                reach |= sums[k]
    return not reach >> (n - 1) & 1


def check_subtree_lemma(spec: RecurrenceSpec, n: int) -> bool:
    """Every tree with n vertices has a subtree whose size falls in
    subtree_size_interval, proper for n >= 2 (decided by _lemma_holds)."""
    _check_size(n)
    lo, hi = subtree_size_interval(spec, n)
    return _lemma_holds(spec.max_arity, n, lo, hi)
