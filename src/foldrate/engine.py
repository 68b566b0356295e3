"""Incremental sequence computation via per-arity sum-fold columns.

The j-fold sum fold at m is the sum over all ordered splits
x_1+...+x_j = m of s_{x_1}*...*s_{x_j}.  It satisfies

    fold[j][m] = sum_x s_x * fold[j-1][m - x],    fold[1][m] = s_m

so extending from N to N' costs one cell per column per step, O(L * N'^2)
work overall, and s_n is the weighted sum of each term's fold at n - 1.

Max terms need no columns: the j-fold max fold, the max over the same
splits, is s_m.

    Theorem.  For every spec, s_a * s_b <= s_{a+b}.  So every max fold at
    m is s_m, and a term `max j w` adds w * s_{n-1}, as `sum 1 w` does.

    Proof.  Induction on a + b; if a or b is 0 it holds as s_0 = 1.  For
    a >= 1, s_a * s_b = sum_i k_i * F_i(a-1) * s_b with F_i term i's
    fold.  (x_1, ..., x_l) -> (x_1 + b, x_2, ..., x_l) maps the splits of
    a-1 injectively to splits of a+b-1, and as x_1 < a, induction gives
    s_{x_1} * s_b <= s_{x_1+b}.  All products being nonnegative,
    F_i(a-1) * s_b <= F_i(a+b-1) for sum and max folds alike; summing
    over i proves the claim.  Applied j - 1 times, it bounds the product
    over any split of m by s_m, which the split (m, 0, ..., 0) attains.

The plan is resolved once, when a table is built: columns s, then the sum
ranks 2.. (the cache's record order); a pair of source columns per rank,
its recipe; and (weight, column) pairs for the weighted sum, one per
arity, each reading its rank: max weights add to the arity-1 weight,
which reads s.  A fold of a + b parts is the fold of a parts convolved
with that of b, so an even rank 2h squares rank h and an odd rank j
folds s with rank j - 1:

    fold[2h][m] = 2 sum_{x < ceil(m/2)} fold[h][x] fold[h][m-x]
                  + (fold[h][m/2]^2 if m is even)

which takes about half the products of s with rank 2h - 1.  Both value
domains read the recipes; the log domain keeps a mirror row only for s
and the columns some recipe reads (logdomain docstring).  The value
domain, _ExactDomain (exact integers, below) or _LogDomain (natural log
doubles, foldrate.logdomain), is the table's storage: it
holds the columns and the memory budget's byte count, reads values and
ln values off them, encodes them for the cache, and runs the loop that
extends them.  SequenceTable holds the plan and n, and its extend only
runs that loop and records the n reached.  A table restored from the
binary cache and extended is bit-identical to an uninterrupted run.

This module imports no numpy.  The log domain's module, which does, is
loaded the first time a log table is built.  An exact table loads numpy
only for the recurrence search's elimination (holonomic docstring) and
for ln_values, whose vector is a numpy array; building, extending on the
engine or a proved recurrence, reading values and the cache need none.

The exact domain computes on Python ints.  With D the lcm of the weight
denominators (RecurrenceSpec.merged_weights), t_m = D^m s_m is an
integer sequence: a split of m has
s_{x_1}*...*s_{x_j} = D^-m t_{x_1}*...*t_{x_j}, so a sum fold of s
at m is D^-m times that of t, and t_n = sum_i (D * k_i) * fold_i(t)[n-1]
with t_0 = 1.  Fraction appears only at the API boundary: values, fold
cells and ln values go through the reduced t / D^m, and the cache stores
t itself.  The engine computes t through a window W
(holonomic.WINDOWS); an extend past W searches once for a linear
recurrence (R) with polynomial coefficients and proves it (holonomic
docstring).  Where none is found the engine goes on.

Run.  One loop computes each t_n.  On a proved recurrence,

    t_n = -(sum_{i>=1} p_i(n) t_{n-i}) / p_0(n),

r products and one exact division, and a nonzero remainder raises
ArithmeticError.  On the engine, and where p_0(n) = 0, t_n is the
weighted sum of the ranks' cells at n - 1, which one filler brings up
from the stored s by their recipes.  A table on a recurrence stores s
alone: the ranks are emptied once the switch succeeds, and the filler
rebuilds them from s, outside the byte count, for a fold cell, a root
of p_0 or the load's budget check.
"""

from __future__ import annotations

import operator
import struct
import sys
from fractions import Fraction

from .recurrence import Op, RecurrenceSpec
from .scalars import ExactScalar, ln_ratio

__all__ = [
    "DEFAULT_MEMORY_LIMIT",
    "MemoryBudgetError",
    "SequenceTable",
    "compute_sequence",
    "load_cache",
    "save_cache",
]

DEFAULT_MEMORY_LIMIT = 8 << 30  # bytes of table payload, not process RSS


class MemoryBudgetError(RuntimeError):
    """Extending further would exceed the configured memory budget.

    The table that raised this is still valid at the length it reached.
    """


class _ExactDomain:
    """Python ints t_m = D^m s_m in one list per column: s, holding
    t_0 = 1, then the sum ranks 2..top, rank c + 1 (column c) folding the
    source columns src[c - 1] (SequenceTable).

    ``scale`` is D, the lcm of the plan's weight denominators, and each
    plan weight k enters as the integer D*k; the boundary methods take a
    stored cell with its index m back to the reduced Fraction t / D^m.
    ``rec`` is the proved recurrence (holonomic) the domain runs on past
    its window, or None.  One loop, _run, extends the domain, and _fill
    brings the ranks up from s (module docstring, "Run.").  ``nbytes`` is
    the sum of ``sys.getsizeof`` over the counted ints; there is no
    upfront budget, since the size of an int is not known before it is
    computed.
    """

    fallback_cells = 0

    def __init__(self, scale: int, src: list, weights: dict):
        self.scale = scale
        self.pairs = [(w.numerator * (scale // w.denominator), a - 1)
                      for a, w in sorted(weights.items())]
        self.cols = [[1]] + [[] for _ in src]
        # each rank's column and its recipe's two source columns; decode
        # refills the same lists
        self._steps = [(col, self.cols[a], self.cols[b])
                       for col, (a, b) in zip(self.cols[1:], src)]
        self.nbytes = sys.getsizeof(1)
        self.rec = None

    def extend(self, n0: int, new_n: int, limit: int) -> int:
        """Compute s_{n0+1}..s_{new_n}; return the n reached.

        Stops, with the table valid, before any n that would start with
        more than ``limit`` bytes stored.  Without a recurrence, the
        engine computes each n through a window W (holonomic.WINDOWS),
        and an extend past W searches once; a proved recurrence computes
        the rest, and the ranks are emptied.  A call cut short by any
        other exception leaves the table at n0, on the path it was on.
        """
        from . import holonomic  # only exact extends past a window use it

        cols, rec0, nbytes0, n = self.cols, self.rec, self.nbytes, n0
        try:
            for w in holonomic.WINDOWS:
                if self.rec is None and n <= w < new_n:
                    n = self._run(n, w, limit)
                    if n < w:
                        return n
                    self.rec = holonomic.find(cols[0], self.pairs, w)
                    if self.rec:
                        self.nbytes = sum(map(sys.getsizeof, cols[0]))
            n = self._run(n, new_n, limit)
        except BaseException:
            del cols[0][n0 + 1 :]
            for col in cols[1:]:
                del col[n0:]
            self.rec, self.nbytes = rec0, nbytes0
            raise
        if self.rec and not rec0:
            for col in cols[1:]:
                col.clear()
        return n

    def _run(self, n0: int, new_n: int, limit: int) -> int:
        """Append t_{n0+1}..t_{new_n} to s (module docstring, "Run.") and
        return the n reached, stopping before any n that would start with
        more than ``limit`` bytes counted; rank cells count on the engine
        alone."""
        cols, pairs, fill, rec, nbytes = self.cols, self.pairs, self._fill, self.rec, self.nbytes
        s, mul, getsizeof = cols[0], operator.mul, sys.getsizeof
        # from the top power down; on the engine, p_0 = 0
        p = [c[::-1] for c in rec.coeffs] if rec else [()]
        # p_r .. p_1 line up with t_{n-r} .. t_{n-1}
        lead, rest, r = p[0], p[:0:-1], len(p) - 1
        for n in range(n0 + 1, new_n + 1):
            if nbytes > limit:
                new_n = n - 1
                break
            den = 0
            for a in lead:
                den = den * n + a
            if den:
                c = []
                for q in rest:
                    v = 0
                    for a in q:
                        v = v * n + a
                    c.append(v)
                v, rem = divmod(-sum(map(mul, c, s[n - r : n])), den)
                if rem:
                    raise ArithmeticError(f"t_{n} is not an integer: the recurrence does not "
                                          f"hold on the stored values")
            else:
                added = fill(n - 1)
                nbytes += 0 if rec else added
                v = sum(w * cols[i][n - 1] for w, i in pairs)
            s.append(v)
            nbytes += getsizeof(v)
        self.nbytes = nbytes
        return new_n

    def _fill(self, m: int) -> int:
        """Bring every rank through index m from the stored s, by its
        recipe; return the bytes added."""
        mul, getsizeof, added = operator.mul, sys.getsizeof, 0
        # the top rank, filled last, is the shortest (a cut-short fill leaves
        # those below a cell ahead); with no rank, s already holds 0..m
        for x in range(len(self.cols[-1]), m + 1):
            h = (x + 1) // 2
            for col, f, g in self._steps:
                # each source holds 0..x: s, and a rank before the ranks that read it
                if f is g:
                    # a square: the splits (i, x - i) with i < h and their
                    # mirrors once, the middle i = x/2 alone
                    v = sum(map(mul, f, f[x : x - h : -1]))
                    v += v
                    if not x & 1:
                        v += f[h] * f[h]
                else:
                    v = sum(map(mul, f, g[x::-1]))
                col[x:] = (v,)
                added += getsizeof(v)
        return added

    def _cell(self, i: int, m: int) -> int:
        """Column i's int at m; a rank of a domain on a recurrence is
        filled from s on first use."""
        if i:
            self._fill(m)
        return self.cols[i][m]

    def rational(self, i: int, m: int) -> Fraction:
        return Fraction(self._cell(i, m), self.scale ** m)

    def ln(self, i: int, m: int, side: int = 0) -> float:
        # t / D^m unreduced: a gcd of two big ints costs more than the log
        return ln_ratio(self._cell(i, m), self.scale ** m, side)

    def ln_values(self, n: int, side: int = 0):
        import numpy as np  # the vector is numpy's; values and the cache need none

        return np.array([self.ln(0, m, side) for m in range(n + 1)], dtype=np.float64)

    def wrap(self, i: int, m: int) -> ExactScalar:
        return ExactScalar(self.rational(i, m))

    def encode(self, i: int, count: int) -> bytearray:
        """u64 byte length and little-endian bytes of each stored t_m."""
        out = bytearray()
        for v in self.cols[i][:count]:
            b = v.to_bytes((v.bit_length() + 7) // 8, "little")
            out += struct.pack("<Q", len(b))
            out += b
        return out

    def decode(self, reader, counts: list[int], limit: int) -> None:
        """Fill each column that has a record, then refuse a table that
        an uninterrupted extend under ``limit`` would have stopped short
        of: one whose bytes before its last n exceed the limit or, on a
        recurrence, whose engine columns did before its last step to the
        window W."""
        for col, count in zip(self.cols, counts):
            col[:] = [int.from_bytes(reader.take(reader.u("<Q")), "little")
                      for _ in range(reader.record(count))]
        getsizeof = sys.getsizeof
        self.nbytes = sum(sum(map(getsizeof, col)) for col in self.cols)
        n = counts[0] - 1
        # the last n added s_n and each stored rank's cell at n - 1
        before = self.nbytes - sum(getsizeof(col[-1]) for col in self.cols if col) if n else 0
        if self.rec and before <= limit:
            w = self.rec.window
            # a rank's cell at m is at most the top rank's (t_0 = 1), which
            # times its integer weight is a term of t_{m+1}
            sizes = list(map(getsizeof, self.cols[0][:w]))
            if sum(sizes) + len(self._steps) * sum(sizes[1:]) > limit:
                before = sum(sizes) + self._fill(w - 2)
        if before > limit:
            raise MemoryBudgetError(
                f"a table at n={n} holds {before} bytes before its last step, "
                f"budget is {limit}"
            )


# the value domains; a cache file's domain tag is the index of the name
_DOMAINS = ("exact", "log")


def _domain(name: str) -> type:
    """The value domain class for a name in _DOMAINS; the log domain's
    module, which imports numpy, is loaded on first use."""
    if name == "exact":
        return _ExactDomain
    from .logdomain import _LogDomain

    return _LogDomain


class SequenceTable:
    """The prefix s_0..s_n of a sequence plus the fold columns to extend it."""

    def __init__(self, spec: RecurrenceSpec, domain: str = "log",
                 memory_limit: int = DEFAULT_MEMORY_LIMIT):
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r} (expected 'exact' or 'log')")
        self.spec = spec
        self.domain_name = domain
        self.memory_limit = memory_limit
        weights, scale = spec.merged_weights()
        # The ranks are 2..top (top 0: none), rank j in column j - 1; the
        # recipe of rank j, its source columns, squares rank j/2 for even j
        # and folds s with rank j - 1 for odd j: every rank 2..top is
        # stored, and the cache records each.
        self._top = max((a for a in weights if a >= 2), default=0)
        self._src = [(j // 2 - 1,) * 2 if j % 2 == 0 else (0, j - 2)
                     for j in range(2, self._top + 1)]
        # the domain's (weight, column) pairs: each arity reads its rank;
        # arity 1 reads s
        self._dom = _domain(domain)(scale, self._src, weights)
        self.n = 0

    # -- extension --------------------------------------------------------

    @property
    def table_count(self) -> int:
        return max(self._top, 1)

    def extend(self, new_n: int) -> "SequenceTable":
        """Grow the table so values up to s_{new_n} are available.

        MemoryBudgetError leaves the table valid at the n it reached; any
        other exception from inside the loop leaves it at its old n.
        """
        if new_n < self.n:
            raise ValueError(f"table already extends to {self.n}, cannot shrink to {new_n}")
        if new_n == self.n:
            return self
        self.n = self._dom.extend(self.n, new_n, self.memory_limit)
        if self.n < new_n:
            raise MemoryBudgetError(
                f"memory budget {self.memory_limit} bytes exhausted at n={self.n}; "
                f"table still valid there"
            )
        return self

    @property
    def recurrence(self):
        """The proved recurrence (holonomic.Recurrence) an exact table runs
        on past its window, or None: the table is the engine's."""
        return self._dom.rec

    @property
    def fallback_cells(self) -> int:
        """Log-domain sum cells this object computed with the ln kernel
        because their inputs left the mirrors' window (0 in the exact domain)."""
        return self._dom.fallback_cells

    # -- access -----------------------------------------------------------

    def _check_index(self, n: int):
        if not 0 <= n <= self.n:
            raise IndexError(f"s_{n} not computed; table extends to {self.n}")

    def _check_fold(self, j: int, top: int, m: int):
        if not 2 <= j <= top:
            raise KeyError(f"no rank-{j} fold table for this spec")
        if not 0 <= m < self.n:
            raise IndexError(f"fold cell {m} not computed; table extends to {self.n}")

    def value(self, n: int):
        """s_n as a scalar of this table's domain."""
        self._check_index(n)
        return self._dom.wrap(0, n)

    def scaled_values(self, n: int) -> tuple[list, int]:
        """(t_0..t_n, D) of an exact table: s_m = t_m / D^m, unreduced
        (module docstring); a log table raises ValueError."""
        if self.domain_name != "exact":
            raise ValueError("scaled values are stored by exact tables only")
        self._check_index(n)
        return self._dom.cols[0][: n + 1], self._dom.scale

    def value_ln(self, n: int) -> float:
        """Natural log of s_n."""
        self._check_index(n)
        return self._dom.ln(0, n)

    def ln_values(self, side: int = 0):
        """numpy vector of ln s_0 .. ln s_n; side -1 or 1 gives exact-domain
        values rounded down or up (scalars.ln_ratio)."""
        return self._dom.ln_values(self.n, side)

    def sum_fold(self, j: int, m: int):
        """j-fold sum-convolution cell at index m, as a domain scalar."""
        if j == 1:
            return self.value(m)
        self._check_fold(j, self._top, m)
        return self._dom.wrap(j - 1, m)

    def max_fold(self, j: int, m: int):
        """Alias for value(m): every max fold is s (module docstring).  Ranks
        2..the largest max arity take 0 <= m < n, other ranks >= 2 raise
        KeyError, as when max ranks had columns."""
        if j != 1:
            self._check_fold(j, max((t.arity for t in self.spec.terms if t.op is Op.MAX),
                                    default=0), m)
        return self.value(m)

    def _record_counts(self) -> list[int]:
        """Values per stored column: n + 1 for s, n for each sum rank (no
        rank on a recurrence)."""
        return [self.n + 1] + [self.n] * (0 if self.recurrence else self.table_count - 1)

    def __repr__(self):
        return (f"SequenceTable(domain={self.domain_name!r}, n={self.n}, "
                f"tables={self.table_count})")


def compute_sequence(spec: RecurrenceSpec, n: int, domain: str = "log",
                     memory_limit: int = DEFAULT_MEMORY_LIMIT) -> SequenceTable:
    """Build a table and extend it to n in one call."""
    return SequenceTable(spec, domain=domain, memory_limit=memory_limit).extend(n)


def __getattr__(name):
    # save_cache and load_cache live in foldrate.cache, imported on first use
    if name in ("load_cache", "save_cache"):
        from . import cache

        return getattr(cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
