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
ranks 2.. (the cache's order); a pair of source columns per rank,
its recipe; and (weight, column) pairs for the weighted sum, one per
arity, each reading its rank: max weights add to the arity-1 weight,
which reads s.  A fold of a + b parts is the fold of a parts convolved
with that of b, so an even rank 2h squares rank h and an odd rank j
folds s with rank j - 1:

    fold[2h][m] = 2 sum_{x < ceil(m/2)} fold[h][x] fold[h][m-x]
                  + (fold[h][m/2]^2 if m is even)

which takes about half the products of s with rank 2h - 1.  Both kinds
of table read the recipes; a log table keeps a mirror row only for s
and the columns some recipe reads (logdomain docstring).  A table is
one object of its value domain: SequenceTable(spec, domain) returns an
_ExactTable (exact integers, below) or a _LogTable (natural log doubles,
foldrate.logdomain), as pathlib.Path returns its platform's class.  The
base class holds the spec, the plan and n, and checks indices; each
subclass holds its columns and its byte count, reads values and ln
values off them, encodes them for the cache, and runs the loop that
extends them.  A table restored from the binary cache and extended is
bit-identical to an uninterrupted run.
No bound reads a table (bounds docstring): ln values carry no radius.

The memory budget, foldrate.engine.DEFAULT_MEMORY_LIMIT in bytes, is set
and read here alone.  One gate, check_budget, refuses work before it
starts, never per n: a plan, a log extend, a load, an exact fold read, a
Lagrange point and a power of rate_interval.  An exact run, which cannot
project its bytes, counts them per n and stops before an n over budget.

This module imports no numpy.  The log domain's module, which does, is
loaded the first time a log table is built.  An exact table loads numpy
only for the recurrence search's elimination (holonomic docstring) and
for ln_values, whose vector is a numpy array; building, extending on the
engine or a proved recurrence, reading values and the cache need none.

The exact domain computes on Python ints.  With D the lcm of the weight
denominators (RecurrenceSpec.merged_weights), t_m = D^m s_m is an
integer sequence: a split of m has
s_{x_1}*...*s_{x_j} = D^-m t_{x_1}*...*t_{x_j}, so a sum fold of s at m
is D^-m times that of t, and t_n = sum_i (D * k_i) * fold_i(t)[n-1] with
t_0 = 1.  Fraction appears only at the API boundary: values, fold cells
and ln values go through the reduced t / D^m, and the cache stores t
itself.

Run.  One loop computes each t_n.  On the engine, through a window W in
WINDOWS, t_n is the weighted sum of the ranks' cells at n - 1, which one
filler brings up from the stored s by their recipes.  An extend past W
searches once for a recurrence (R) that holonomic accepts (its
docstring); only such an extend loads that module, and where none is
found the engine goes on.  On a recurrence the loop asks holonomic for
t_n (Recurrence.step).  The ranks, emptied at the switch and when an
extend starts, are rebuilt from s, counted, for a fold cell until the
next extend: neither a fold read nor how extends are split moves where a
table stops.  A rank cell at x is at most t_{x+1} (_fill_bound), which
bounds a refill before it runs: a fold read past the budget is refused
with nothing filled, and a load fills them only where the bound passes.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction

from .recurrence import Op, RecurrenceSpec
from .scalars import ExactScalar, _int_bytes, _take_int, ln_ratio

__all__ = [
    "DEFAULT_MEMORY_LIMIT",
    "MemoryBudgetError",
    "SequenceTable",
    "check_budget",
    "compute_sequence",
    "load_cache",
    "save_cache",
]

DEFAULT_MEMORY_LIMIT = 8 << 30  # bytes of working data, not process RSS
# the n at which a table still on the engine searches for a recurrence
# (holonomic docstring)
WINDOWS = (48, 104)
# the least a sum rank holds before any value: its 8-byte slot in an
# exact table's list of columns, or the float64 of its row in a log table
# (recipes and lists add about 220 more)
_RANK_BYTES = 8


class MemoryBudgetError(RuntimeError):
    """Raised by check_budget, or by an extend that stopped short, which
    leaves the table valid at the length it reached."""


def check_budget(need: int, what: str, after: str = "") -> None:
    """The one gate before work: raise MemoryBudgetError, naming ``what``
    and ending with ``after``, if ``need`` bytes pass DEFAULT_MEMORY_LIMIT
    as it reads now."""
    if need > DEFAULT_MEMORY_LIMIT:
        raise MemoryBudgetError(
            f"{what} needs ~{need} bytes, budget is {DEFAULT_MEMORY_LIMIT}{after}")


class SequenceTable:
    """The prefix s_0..s_n of a sequence plus the fold columns to extend
    it, under the budget foldrate.engine.DEFAULT_MEMORY_LIMIT at each call.

    SequenceTable(spec, domain) returns the domain's table, an _ExactTable
    or a _LogTable, each a SequenceTable (module docstring), with
    ``domain_name``, ``recurrence`` (the proved recurrence, holonomic, an
    exact table runs on past its window, or None) and ``fallback_cells``
    (sum cells a log table computed with the ln kernel; 0 when exact).
    This class holds what both share: the spec, n and the plan.  The
    ranks are 2..top (top 0: none), rank j in column j - 1, and
    _src[j - 2], the recipe of rank j, names its two source columns: rank
    j/2 twice for even j, s and rank j - 1 for odd j.  Every rank 2..top
    is stored, and the cache records each.
    """

    def __new__(cls, spec: RecurrenceSpec, domain: str = "log"):
        if cls is SequenceTable:
            if domain not in ("exact", "log"):
                raise ValueError(f"unknown domain {domain!r} (expected 'exact' or 'log')")
            cls = _ExactTable
            if domain == "log":
                from .logdomain import _LogTable as cls  # imports numpy
        return super().__new__(cls)

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._top = max((t.arity for t in spec.terms if t.op is Op.SUM and t.arity >= 2),
                        default=0)
        check_budget((self._top - 1) * _RANK_BYTES, f"a plan of {self._top - 1} sum ranks")
        self._src = [(j // 2 - 1,) * 2 if j % 2 == 0 else (0, j - 2)
                     for j in range(2, self._top + 1)]
        self.n = 0

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
        self.n = self._extend(new_n)
        if self.n < new_n:
            raise MemoryBudgetError(f"memory budget {DEFAULT_MEMORY_LIMIT} bytes exhausted at "
                                    f"n={self.n}; table still valid there")
        return self

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
        return self._scalar(0, n)

    def scaled_values(self, n: int) -> tuple[list, int]:
        """(t_0..t_n, D) of an exact table: s_m = t_m / D^m, unreduced
        (module docstring); a log table raises ValueError."""
        raise ValueError("scaled values are stored by exact tables only")

    def value_ln(self, n: int) -> float:
        """Natural log of s_n."""
        self._check_index(n)
        return self._ln(n)

    def sum_fold(self, j: int, m: int):
        """j-fold sum-convolution cell at index m, as a domain scalar."""
        if j == 1:
            return self.value(m)
        self._check_fold(j, self._top, m)
        return self._scalar(j - 1, m)

    def max_fold(self, j: int, m: int):
        """Alias for value(m): every max fold is s (module docstring).  Ranks
        2..the largest max arity take 0 <= m < n, other ranks >= 2 raise
        KeyError, as when max ranks had columns."""
        if j != 1:
            self._check_fold(j, max((t.arity for t in self.spec.terms if t.op is Op.MAX),
                                    default=0), m)
        return self.value(m)

    def __repr__(self):
        return (f"SequenceTable(domain={self.domain_name!r}, n={self.n}, "
                f"tables={self.table_count})")


class _ExactTable(SequenceTable):
    """Python ints t_m = D^m s_m, one list per column in ``cols``: s,
    holding t_0 = 1, then the sum ranks 2..top.  ``scale`` is D and
    ``pairs`` the weighted sum's (D*k, column) pairs, one per arity, each
    reading its rank (arity 1 and the max weights read s).  One loop,
    _run, extends the table, asking holonomic for t_n on a recurrence,
    and _fill brings the ranks up from s (module docstring, "Run.").
    ``nbytes``, summed when read, is ``sys.getsizeof`` over the ints
    held; an extend has no upfront budget, since the size of an int is
    not known before it is computed.
    """

    domain_name = "exact"
    fallback_cells = 0

    def __init__(self, spec: RecurrenceSpec, domain: str = "exact"):
        super().__init__(spec)
        weights, self.scale = spec.merged_weights()
        self.pairs = [(w.numerator * (self.scale // w.denominator), a - 1)
                      for a, w in sorted(weights.items())]
        self.cols = [[1]] + [[] for _ in self._src]
        # each rank's column and its recipe's two source columns; decode
        # refills the same lists
        self._steps = [(col, self.cols[a], self.cols[b])
                       for col, (a, b) in zip(self.cols[1:], self._src)]
        self.recurrence = None

    @property
    def nbytes(self) -> int:
        return sum(sum(map(sys.getsizeof, col)) for col in self.cols)

    def _extend(self, new_n: int) -> int:
        """Compute s_{n+1}..s_{new_n} by _run, searching at each window
        crossed on the engine, and return the n reached (module docstring,
        "Run.").  A call cut short by an exception leaves the table at its
        old n, on the path it was on, its engine ranks rebuilt from s after
        a switch."""
        cols, rec0, filled = self.cols, self.recurrence, len(self.cols[-1])
        n0 = n = self.n
        try:
            for w in WINDOWS:
                if self.recurrence is None and n <= w < new_n:
                    n = self._run(n, w)
                    if n < w:
                        return n
                    from . import holonomic  # loaded by the first search

                    self.recurrence = holonomic.find(cols[0], self.spec)
            if self.recurrence:
                for col in cols[1:]:
                    col.clear()
            n = self._run(n, new_n)
        except BaseException:
            del cols[0][n0 + 1 :]
            for col in cols[1:]:
                del col[filled:]
            self.recurrence = rec0
            if rec0 is None:
                self._fill(filled - 1)
            raise
        return n

    def _run(self, n0: int, new_n: int) -> int:
        """Append t_{n0+1}..t_{new_n} to s (module docstring, "Run.") and
        return the n reached, stopping before any n that would start with
        more than the budget's bytes counted."""
        cols, pairs, fill, nbytes = self.cols, self.pairs, self._fill, self.nbytes
        s, getsizeof, limit = cols[0], sys.getsizeof, DEFAULT_MEMORY_LIMIT
        step = self.recurrence.step(s) if self.recurrence else None
        for n in range(n0 + 1, new_n + 1):
            if nbytes > limit:
                return n - 1
            if step:
                v = step(n)
            else:
                nbytes += fill(n - 1)
                v = sum(w * cols[i][n - 1] for w, i in pairs)
            s.append(v)
            nbytes += getsizeof(v)
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

    def _fill_bound(self, m: int) -> int:
        """A bound on the bytes _fill(m) adds, from the stored s: a rank's cell
        at x is at most the top rank's (t_0 = 1), a term of t_{x+1}."""
        cells = self.cols[0][len(self.cols[-1]) + 1 : m + 2]
        return len(self._steps) * sum(map(sys.getsizeof, cells))

    def _cell(self, i: int, m: int) -> int:
        """Column i's int at m.  A rank of a table on a recurrence is filled
        from s on first use, and held until the next extend; where
        _fill_bound passes the budget, the read is refused and nothing is
        filled."""
        if i and len(self.cols[-1]) <= m:
            check_budget(self.nbytes + self._fill_bound(m), f"reading fold cells through m={m}")
            self._fill(m)
        return self.cols[i][m]

    def _scalar(self, i: int, m: int) -> ExactScalar:
        return ExactScalar(Fraction(self._cell(i, m), self.scale ** m))

    def _ln(self, m: int) -> float:
        # t / D^m unreduced: a gcd of two big ints costs more than the log
        return ln_ratio(self.cols[0][m], self.scale ** m)

    def ln_values(self):
        """numpy vector of ln s_0 .. ln s_n, each with no rounding radius."""
        import numpy as np  # the vector is numpy's; values and the cache need none

        return np.array([self._ln(m) for m in range(self.n + 1)], dtype=np.float64)

    def scaled_values(self, n: int) -> tuple[list, int]:
        self._check_index(n)
        return self.cols[0][: n + 1], self.scale

    def encode(self) -> bytes:
        """The table's cache values (foldrate.cache docstring): t_0..t_n,
        then, on the engine, each rank's cells 0..n-1."""
        cols = self.cols[:1] if self.recurrence else self.cols
        return b"".join(_int_bytes(v) for i, c in enumerate(cols) for v in c[: self.n + (not i)])

    def decode(self, take) -> None:
        """Fill the columns encode writes at n from take(k), which returns
        the next k bytes, then refuse a table that an uninterrupted
        extend under the budget would have stopped short of: one whose
        bytes before its last n exceed it or, on a recurrence, whose
        engine columns did before its last step to the window W.  Those
        are filled from s only where _fill_bound passes the budget,
        counted and emptied again."""
        n, getsizeof = self.n, sys.getsizeof
        for i, col in enumerate(self.cols[:1] if self.recurrence else self.cols):
            col[:] = [_take_int(take) for _ in range(n + (not i))]
        # the last n added s_n and each stored rank's cell at n - 1
        before = self.nbytes - sum(getsizeof(col[-1]) for col in self.cols if col) if n else 0
        if self.recurrence:
            w = self.recurrence.window
            held = sum(map(getsizeof, self.cols[0][:w]))
            if held + self._fill_bound(w - 2) > DEFAULT_MEMORY_LIMIT:
                before = max(before, held + self._fill(w - 2))
                for col in self.cols[1:]:
                    col.clear()
        check_budget(before, f"a table at n={n}")


def compute_sequence(spec: RecurrenceSpec, n: int, domain: str = "log") -> SequenceTable:
    """Build a table and extend it to n in one call."""
    return SequenceTable(spec, domain=domain).extend(n)


def __getattr__(name):
    # save_cache and load_cache live in foldrate.cache, imported on first use
    if name in ("load_cache", "save_cache"):
        from . import cache

        return getattr(cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
