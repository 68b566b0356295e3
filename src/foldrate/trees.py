"""Exhaustive tree enumeration: the independent cross-check for the engine.

A sequence value can be read off a family of labelled trees: every vertex
carries one term of the recurrence and exactly arity-many ordered branches,
each branch either empty or another such tree.  A tree's value is the
product of its vertex weights.  Summing values over all trees with n
vertices reproduces s_n exactly when every term is a sum term, and the
maximum over values reproduces s_n when the recurrence is a single max
term; for mixed recurrences the two aggregates bracket s_n.

Everything here is deliberately brute force - streamed enumeration with no
memoisation - so that agreement with the convolution engine is evidence,
not circularity.  A size cap keeps accidental combinatorial explosions
from hanging a test run; pass a bigger cap explicitly to go past it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from . import DEFAULT_SIZE_CAP
from .recurrence import RecurrenceSpec

__all__ = [
    "DEFAULT_SIZE_CAP",
    "check_subtree_lemma",
    "oracle_summary",
    "subtree_size_interval",
    "tree_values",
]


def _compositions(total: int, parts: int):
    """Ordered nonnegative integer splits, lexicographically ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_cap(n: int, size_cap: int):
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
    _check_cap(n, size_cap)
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


# -- subtree size interval ----------------------------------------------


def subtree_size_interval(spec: RecurrenceSpec, n: int) -> tuple[Fraction, Fraction]:
    """Closed interval that must contain some subtree size, L = max arity."""
    L = spec.max_arity
    return Fraction(n - 1, L + 1), Fraction(L * n + 1, L + 1)


def _partitions(total: int, parts: int, largest: int):
    """Partitions of total into exactly ``parts`` parts, descending, <= largest."""
    if parts == 1:
        if 1 <= total <= largest:
            yield (total,)
        return
    # first part is the largest; at least ceil(total/parts), at most min(largest, total-parts+1)
    lo = -(-total // parts)
    for first in range(min(largest, total - parts + 1), lo - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _shapes(n: int, max_children: int, memo: dict) -> tuple:
    """All unordered rooted trees with n vertices and degree <= max_children.

    A shape is a sorted tuple of child shapes.  Term labels, branch order
    and empty slots do not change subtree sizes, so checking size
    properties over shapes covers every labelled tree.
    """
    key = n
    got = memo.get(key)
    if got is not None:
        return got
    if n == 1:
        memo[key] = ((),)
        return memo[key]
    out = []
    for k in range(1, min(max_children, n - 1) + 1):
        for sizes in _partitions(n - 1, k, n - 1):
            groups = []
            run_start = 0
            for i in range(1, k + 1):
                if i == k or sizes[i] != sizes[run_start]:
                    size = sizes[run_start]
                    copies = i - run_start
                    pool = _shapes(size, max_children, memo)
                    groups.append(list(combinations_with_replacement(pool, copies)))
                    run_start = i
            out.extend(_cross(groups))
    memo[key] = tuple(out)
    return memo[key]


def _cross(groups):
    if not groups:
        yield ()
        return
    for head in groups[0]:
        for tail in _cross(groups[1:]):
            yield head + tail


def _shape_sizes(shape, out):
    size = 1
    for child in shape:
        size += _shape_sizes(child, out)
    out.append(size)
    return size


def check_subtree_lemma(spec: RecurrenceSpec, n: int,
                        size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Every tree with n vertices has a subtree whose size falls in
    subtree_size_interval; for n >= 2 that subtree is automatically proper.

    Verified exhaustively over the unordered shapes trees can take: the
    check depends only on subtree sizes, never on labels or branch order,
    so the shape quotient covers all trees while staying enumerable even
    where the labelled count explodes.
    """
    _check_cap(n, size_cap)
    lo, hi = subtree_size_interval(spec, n)
    if n == 1:
        return lo <= 1 <= hi
    L = spec.max_arity
    for shape in _shapes(n, L, {}):
        sizes: list[int] = []
        _shape_sizes(shape, sizes)
        if not any(lo <= size <= hi and size < n for size in sizes):
            return False
    return True
