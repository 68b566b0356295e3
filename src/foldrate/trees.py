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
evidence, not circularity.  A size cap keeps the enumerators (tree_values,
oracle_summary) from hanging a test run; pass a bigger cap explicitly to
go past it.  The cap bounds the tree size, not the tree count, which
grows exponentially: tree_counts gives the count for each size before
any tree is built, and the command line's oracle refuses a run of more
than TREE_BUDGET trees.  The subtree lemma depends on subtree sizes
alone, and check_subtree_lemma decides it by a dynamic programme over
sizes, uncapped.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import DEFAULT_SIZE_CAP
from .recurrence import RecurrenceSpec

__all__ = [
    "DEFAULT_SIZE_CAP",
    "TREE_BUDGET",
    "check_subtree_lemma",
    "oracle_summary",
    "subtree_size_interval",
    "tree_counts",
    "tree_values",
]

# The most trees the command line's oracle enumerates in one run: about a
# minute and a half at the 1.2 * 10^5 trees per second that oracle_summary
# reaches on the paper's mixed spec (2-core Xeon, Python 3.11), whose
# sizes 1..5 (3,669,230 trees) it admits and 1..6 (142,956,730) refuses.
TREE_BUDGET = 10 ** 7


def _compositions(total: int, parts: int):
    """Ordered nonnegative integer splits, lexicographically ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_size(n: int, size_cap: float = math.inf):
    if n < 1:
        raise ValueError(f"tree size must be >= 1, got {n}")
    if n > size_cap:
        raise ValueError(
            f"tree size {n} exceeds the enumeration cap {size_cap}; "
            f"pass size_cap={n} explicitly to force it"
        )


def _scaled_values(spec: RecurrenceSpec, n: int, size_cap: int):
    """(D**n, iterator over D**n times each tree value) for trees of size n.

    D is the lcm of the weight denominators, so every vertex weight enters
    as the integer D*k and a tree's product never needs a Fraction.
    """
    _check_size(n, size_cap)
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


def tree_values(spec: RecurrenceSpec, n: int, size_cap: int = DEFAULT_SIZE_CAP):
    """Yield the value of every tree with n vertices, one per tree.

    Order: root term index ascending, then the branch-size split
    lexicographically, then recursively the same within each branch.
    """
    den, values = _scaled_values(spec, n, size_cap)
    for v in values:
        yield Fraction(v, den)


def oracle_summary(spec: RecurrenceSpec, n: int, size_cap: int = DEFAULT_SIZE_CAP):
    """(count, sum of values, max of values) over all trees with n vertices.

    The sum equals s_n for all-sum recurrences, the max equals s_n for a
    single max term, and for anything else the two bracket s_n.
    """
    den, values = _scaled_values(spec, n, size_cap)
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
    so c is the spec's recurrence with every weight 1 and every term a
    sum: c_m is the sum over the terms of c's l-fold convolution at m - 1.
    """
    arities = [t.arity for t in spec.terms]
    c = [1]
    folds = [c] + [[] for _ in range(max(arities) - 1)]  # folds[j]: j + 1 factors
    for m in range(1, n + 1):
        for j in range(1, len(folds)):
            folds[j].append(sum(c[x] * folds[j - 1][m - 1 - x] for x in range(m)))
        c.append(sum(folds[a - 1][m - 1] for a in arities))
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
