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
ranks 2.. (the cache's record order), each rank folding s with the rank
below; and (weight, column) pairs for the weighted sum, one per arity,
each reading its rank: max weights add to the arity-1 weight, which reads
s.  The value domain, _ExactDomain (exact integers) or _LogDomain
(natural log doubles), is the table's storage: it holds the columns and
the memory budget's byte count, reads values and ln values off them,
encodes them for the cache, and runs the loop that extends them.
SequenceTable holds the plan and n, and its extend only runs that loop
and records the n reached.  A table restored from the binary cache and
extended is bit-identical to an uninterrupted run.

The exact domain computes on Python ints.  With D the lcm of the weight
denominators (RecurrenceSpec.merged_weights), t_m = D^m s_m is an
integer sequence: a split of m has
s_{x_1}*...*s_{x_j} = D^-m t_{x_1}*...*t_{x_j}, so a sum fold of s
at m is D^-m times that of t, and t_n = sum_i (D * k_i) * fold_i(t)[n-1]
with t_0 = 1.  Fraction appears only at the API boundary: values, fold
cells and ln values go through the reduced t / D^m, and the cache stores
t itself.  The engine loop computes t through a window W
(holonomic.WINDOWS); an extend past W searches once for a linear
recurrence with polynomial coefficients, proves it, and from then on
computes each t_n with r products and one exact division, holding s
alone (holonomic docstring).  Where no recurrence is found the engine
loop goes on.  Fold cells of a table on a recurrence come from an
engine-only copy built on first use.

Log-domain columns store ln values, and cells are solved a block at a
time in a scaled linear domain.  Cell indices are cut into power-of-two
chunks, m in [2^(k-1), 2^k) with k = m.bit_length(), and each chunk has
one scale theta: the slope of the stored ln s over [m0/2, m0],
m0 = 2^(k-1) (ln s_1 for k = 1).  Every column that feeds a sum rank (s
and ranks 2..top-1) gets a mirror u_x = exp(ln s_x - theta*x), or
g_j[x] = exp(ln fold_j[x] - theta*x); the theta factors of a split of m
multiply to exp(theta*m), so g_j[m] = sum_x u_x g_{j-1}[m-x] and
u_{m+1} = e^-theta sum_pairs w g_col[m].  m = 0 is the base case.

A chunk is cut into blocks of B = min(2^(k-1), 128) cells, [M, M+B)
with M = m0, m0 + B, ..., so B <= M.  Then in every split of a cell of
the block at most one part is >= M, and the block's unknowns,
U = u_{M+1..M+B} and G_j = g_j[M..M+B-1] as polynomials in t, satisfy a
causal linear system (all products mod t^B, ell_j = g_j[0..B-1], known):

    G_1 = u_M + t U
    G_j = K_j + G_1 ell_{j-1} + ell_1 G_{j-1}
    U   = e^-theta sum_pairs w G_col

K_j[r] = sum u_x g_{j-1}[M+r-x] over x < M and M+r-x < M is the
known x known part: one np.convolve per rank and block, over mirror rows
whose entries >= M are zeroed, so it reads indices < M only.  Writing
G_j = P_j + Q_j U, the Q_j, A = e^-theta sum w Q_col and
(1 - A)^-1 = prod_i (1 + A^(2^i)) depend on ell and theta alone and are
computed once per chunk; A has no constant term, so A^B = 0 and
ceil(log2 B) factors suffice.  A block then takes the P_j,
U = (e^-theta sum w P_col) (1 - A)^-1 and G_j = P_j + Q_j U.  Every
coefficient is nonnegative and no step subtracts or uses an FFT, so the
rounding error of each value is relative to the value itself.  The ln
values are np.log(.) + theta * index.

Mirrors are derived from the stored ln rows by one vectorised
np.exp(ln - theta*x) when an extend call or a chunk starts and after
each block, never from the solved values, and np.exp gives every
element the same result wherever it sits in the array.  A block that
new_n cuts through is solved whole from the same inputs and stored only
through new_n, and the next call solves it again; so stepped, resumed and
one-shot tables are bit-identical.  While every mirror entry and weight
factor e^-theta * w lies in [e^-340, e^340], each product of two lies in
[e^-680, e^680].  A block that reads an entry outside that window, or
whose solved values are not all positive normal doubles, is computed
cell by cell by the ln kernel instead (scalars.log_sum_vec for each rank
cell, then for s); ``fallback_cells`` counts its rank cells.  Neither
kernel carries a rigorous rounding radius: the float domain's bounds are
certified only up to float rounding.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from fractions import Fraction

import numpy as np

from .recurrence import Op, RecurrenceSpec
from .scalars import ExactScalar, LogScalar, ln_fraction, ln_ratio, log_sum_vec

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


# Mirror entries satisfy |ln v - theta*x| <= _WINDOW, so each lies in
# [e^-340, e^340], each product of two in [e^-680, e^680], and a dot
# product of fewer than ~10^7 such products is a normal double.
_WINDOW = 340.0
_LO, _HI = math.exp(-_WINDOW), math.exp(_WINDOW)
# the log domain's largest block: chunk k is cut into blocks of
# B = min(2^(k-1), _BLOCK) cells
_BLOCK = 128
_TINY = sys.float_info.min
_HUGE = sys.float_info.max


def _chunk_scale(ln_s: np.ndarray, k: int) -> float:
    """The scale theta for cells m with m.bit_length() == k.

    Read off stored ln s only: the slope of ln s over the previous
    half-chunk, [m0/2, m0] with m0 = 2^(k-1).
    """
    if k == 0:
        return 0.0
    m0 = 1 << (k - 1)
    if m0 == 1:
        return float(ln_s[1])
    half = m0 // 2
    return float((ln_s[m0] - ln_s[half]) / (m0 - half))


def _widened(rows: np.ndarray, total: int) -> np.ndarray:
    """``rows`` copied into the start of new rows of ``total`` entries."""
    out = np.empty((len(rows), total))
    out[:, : rows.shape[1]] = rows
    return out


class _ExactDomain:
    """Python ints t_m = D^m s_m in one list per column: s, holding
    t_0 = 1, then the sum ranks 2..top.

    ``scale`` is D, the lcm of the plan's weight denominators, and each
    plan weight k enters as the integer D*k; the boundary methods take a
    stored cell with its index m back to the reduced Fraction t / D^m.
    ``rec`` is the proved recurrence (holonomic) the domain runs on past
    its window, or None.  A domain on a recurrence holds s alone, and an
    engine-only copy of every column, built on first use (_engine_cols),
    gives its fold cells and t_n where p_0(n) = 0.  ``nbytes`` is the sum
    of ``sys.getsizeof`` over the stored ints; there is no upfront budget,
    since the size of an int is not known before it is computed.
    """

    tag = 0
    fallback_cells = 0

    def __init__(self, scale: int, top: int, weights: dict):
        self.scale, self._plan = scale, (scale, top, weights)
        self.pairs = [(w.numerator * (scale // w.denominator), a - 1)
                      for a, w in sorted(weights.items())]
        self.cols = [[1]] + [[] for _ in range(2, top + 1)]
        self.nbytes = sys.getsizeof(1)
        self.rec = self._eng = None

    def extend(self, n0: int, new_n: int, limit: int) -> int:
        """Compute s_{n0+1}..s_{new_n}; return the n reached.

        Stops, with the table valid, before any n that would start with
        more than ``limit`` bytes stored.  Without a recurrence, the
        engine computes each n through a window W (holonomic.WINDOWS),
        and an extend past W searches once; a proved recurrence computes
        the rest, and the fold columns are dropped.  A call cut short by
        any other exception leaves the table at n0.
        """
        from . import holonomic  # only exact extends past a window use it

        s, nbytes0 = self.cols[0], self.nbytes
        rec, n = self.rec, n0
        try:
            for w in holonomic.WINDOWS:
                if rec is None and n <= w < new_n:
                    n = self._engine(n, w, limit)
                    if n < w:
                        return n
                    rec = holonomic.find(s, self.pairs, w)
            if rec is None:
                return self._engine(n, new_n, limit)
            nbytes = nbytes0 if self.rec else sum(map(sys.getsizeof, s))
            n, nbytes = holonomic.run(rec, s, n, new_n, limit, nbytes, self._engine_cols)
        except BaseException:
            del s[n0 + 1 :]
            for col in self.cols[1:]:
                del col[n0:]
            self.nbytes = nbytes0
            raise
        self.rec, self.cols, self.nbytes = rec, [s], nbytes
        return n

    def _engine(self, n0: int, new_n: int, limit: int) -> int:
        """The engine loop: each rank's cell at n - 1, then s_n."""
        cols, nbytes = self.cols, self.nbytes
        s, steps = cols[0], list(zip(cols[1:], cols))
        mul, getsizeof = operator.mul, sys.getsizeof
        for n in range(n0 + 1, new_n + 1):
            if nbytes > limit:
                new_n = n - 1
                break
            m = n - 1
            for col, source in steps:
                # s holds s_0..s_m until the ranks are done
                v = sum(map(mul, s, source[m::-1]))
                col.append(v)
                nbytes += getsizeof(v)
            v = sum(w * cols[i][m] for w, i in self.pairs)
            s.append(v)
            nbytes += getsizeof(v)
        self.nbytes = nbytes
        return new_n

    def _engine_cols(self, n: int) -> list:
        """The columns of an engine-only copy of this domain through n."""
        eng, self._eng = self._eng or _ExactDomain(*self._plan), None
        eng._engine(len(eng.cols[0]) - 1, n, math.inf)
        self._eng = eng
        return eng.cols

    def _cell(self, i: int, m: int) -> int:
        """Column i's int at m; a domain on a recurrence reads its ranks
        from the engine-only copy."""
        cols = self.cols if i < len(self.cols) else self._engine_cols(m + 1)
        return cols[i][m]

    def rational(self, i: int, m: int) -> Fraction:
        return Fraction(self._cell(i, m), self.scale ** m)

    def ln(self, i: int, m: int, side: int = 0) -> float:
        # t / D^m unreduced: a gcd of two big ints costs more than the log
        return ln_ratio(self._cell(i, m), self.scale ** m, side)

    def ln_values(self, n: int, side: int = 0) -> np.ndarray:
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
        self.cols = [[int.from_bytes(reader.take(reader.u("<Q")), "little")
                      for _ in range(reader.record(count))] for count in counts]
        getsizeof = sys.getsizeof
        self.nbytes = sum(sum(map(getsizeof, col)) for col in self.cols)
        n = counts[0] - 1
        # the last n added s_n and each rank's cell at n - 1: every column's last value
        before = self.nbytes - sum(getsizeof(col[-1]) for col in self.cols) if n else 0
        if self.rec and before <= limit:
            w = self.rec.window
            # a rank's cell at m is at most the top rank's (t_0 = 1), which
            # times its integer weight is a term of t_{m+1}
            sizes = list(map(getsizeof, self.cols[0][:w]))
            if sum(sizes) + max(self._plan[1] - 1, 0) * sum(sizes[1:]) > limit:
                self._engine_cols(w - 1)
                before = self._eng.nbytes
        if before > limit:
            raise MemoryBudgetError(
                f"a table at n={n} holds {before} bytes before its last step, "
                f"budget is {limit}"
            )


class _LogDomain:
    """ln values in float64 rows, 8 bytes per value and mirror entry.

    Row i of ``data`` is column i: s, holding ln s_0 = 0, then the sum
    ranks 2..top.  Columns 0..top-2 feed a sum rank, and an extend call
    keeps a scaled linear mirror row u_x = exp(ln v_x - theta*x) for each
    of them (see the module docstring), re-derived from the ln rows at
    every chunk start and after every block; no solver state outlives the
    call.  Every row has the same capacity; the record counts come from
    the table's n.  The scale D is not needed: ln values carry no lattice.
    """

    tag = 1
    rec = None

    def __init__(self, scale: int, top: int, weights: dict):
        self.pairs = [(ln_fraction(w), a - 1) for a, w in sorted(weights.items())]
        self.data = np.zeros((max(top, 1), 1))
        self.feeds = max(top - 1, 0)
        self.fallback_cells = 0

    def _projected(self, n: int) -> int:
        """Bytes of a table at n: 8 per index for each ln value and mirror entry."""
        return (len(self.data) + self.feeds) * (n + 1) * 8

    def _reserve(self, n0: int, new_n: int, limit: int) -> None:
        """Reject an extension the budget cannot hold before doing any work."""
        projected = self._projected(new_n)
        if projected > limit:
            raise MemoryBudgetError(
                f"extending to {new_n} needs ~{projected} bytes, "
                f"budget is {limit}; table still valid at n={n0}"
            )
        if new_n + 1 > self.data.shape[1]:
            self.data = _widened(self.data, new_n + 1)

    def extend(self, n0: int, new_n: int, limit: int) -> int:
        """Compute s_{n0+1}..s_{new_n}; return new_n.

        The budget is checked for all of them before any work.  m = 0 is
        the base case; from m = 1 on, cells go block by block, each block
        solved whole and stored from the first new cell through new_n, or
        computed cell by cell by the ln kernel where the solver's
        conditions fail.
        """
        self._reserve(n0, new_n, limit)
        lnw = np.array([w for w, _ in self.pairs])
        cols = [i for _, i in self.pairs]
        # _BLOCK entries of room past new_n for the zeroed tail of a block
        mirror = np.empty((self.feeds, new_n + 1 + _BLOCK))
        fallback, k, m = 0, 0, n0
        if m == 0:
            self._ln_cell(0, lnw, cols)
            m = 1
        with np.errstate(all="ignore"):
            while m < new_n:
                if m.bit_length() != k:
                    k = m.bit_length()
                    chunk = self._chunk(k, lnw, cols, mirror, m)
                theta, B = chunk[:2]
                M = m - (m - (1 << (k - 1))) % B
                end = min(M + B, new_n)
                if not self._block(chunk, mirror, M, m, end):
                    for x in range(m, end):
                        self._ln_cell(x, lnw, cols)
                    fallback += self.feeds * (end - m)
                self._derive(mirror, theta, M, end)
                m = end
        self.fallback_cells += fallback
        return new_n

    def _derive(self, mirror: np.ndarray, theta: float, lo: int, n: int) -> None:
        """Mirror entries from the stored ln rows: s's at lo..n, each other
        feeding column's at lo..n-1."""
        if len(mirror):
            x = np.arange(lo, n + 1)
            mirror[0, lo : n + 1] = np.exp(self.data[0, lo : n + 1] - theta * x)
            mirror[1:, lo:n] = np.exp(self.data[1 : len(mirror), lo:n] - theta * x[:-1])

    def _chunk(self, k: int, lnw: np.ndarray, cols: list, mirror: np.ndarray,
               n: int) -> tuple:
        """Set chunk k's theta, derive the mirrors through n under it, and
        return the chunk's solver constants (module docstring): theta, the
        block length B, the low mirror entries ell = mirror[:, :B], each
        column's Q, the (e^-theta * w, column) pairs, R = (1 - A)^-1, and
        whether every weight factor e^-theta * w lies in the window."""
        theta = _chunk_scale(self.data[0], k)
        self._derive(mirror, theta, 0, n)
        B = min(1 << (k - 1), _BLOCK)
        ell = mirror[:, :B]
        # Q for s is t; rank c + 1 adds t * ell[c-1] to ell[0] * Q[c-1]
        Q = [np.zeros(B)]
        Q[0][1:2] = 1.0  # t, which is 0 mod t^1
        for c in range(1, len(self.data)):
            q = np.convolve(ell[0], Q[c - 1])[:B]
            q[1:] += ell[c - 1, :-1]
            Q.append(q)
        weights = list(zip(np.exp(lnw - theta), cols))
        A = sum(w * Q[c] for w, c in weights)
        # (1 - A)^-1 = prod_i (1 + A^(2^i)); A^B = 0 mod t^B
        R = np.zeros(B)
        R[0] = 1.0
        for _ in range((B - 1).bit_length()):
            R = R + np.convolve(R, A)[:B]
            A = np.convolve(A, A)[:B]
        ok = bool(np.abs(lnw - theta).max() <= _WINDOW)
        return theta, B, ell, Q, weights, R, ok

    def _block(self, chunk: tuple, mirror: np.ndarray, M: int, lo: int, end: int) -> bool:
        """Solve the block of cells M..M+B-1 and store those in lo..end-1;
        False, with nothing stored, where an input mirror entry or weight
        factor leaves the window or a solved value is not a positive
        normal double."""
        data, (theta, B, ell, Q, weights, R, ok) = self.data, chunk
        a, low = data[0, M] - theta * M, mirror[:, :M]
        if not (ok and abs(a) <= _WINDOW
                and (not low.size or _LO <= low.min() and low.max() <= _HI)):
            return False
        um = float(np.exp(a))
        # the known x known part reads indices < M only, also when this
        # block was computed before, by a call that stopped inside it
        mirror[:, M : M + B] = 0.0
        conv = np.convolve
        P = [np.zeros(B)]
        P[0][0] = um
        for c in range(1, len(data)):
            p = conv(mirror[c - 1, 1 : M + B], mirror[0, :M], "valid")
            p += um * ell[c - 1]
            p += conv(ell[0], P[c - 1])[:B]
            P.append(p)
        sol = np.empty((len(data), B))
        sol[0] = conv(sum(w * P[c] for w, c in weights), R)[:B]
        for c in range(1, len(data)):
            sol[c] = P[c] + conv(Q[c], sol[0])[:B]
        if not (_TINY <= sol.min() and sol.max() <= _HUGE):
            return False
        ln = np.log(sol)
        ln[0] += theta * np.arange(M + 1, M + B + 1)
        ln[1:] += theta * np.arange(M, M + B)
        data[0, lo + 1 : end + 1] = ln[0, lo - M : end - M]
        data[1:, lo:end] = ln[1:, lo - M : end - M]
        return True

    def _ln_cell(self, m: int, lnw: np.ndarray, cols: list) -> None:
        """The ln kernel: each rank's cell at m, then s_{m+1}, from the ln rows."""
        data = self.data
        for c in range(1, len(data)):
            data[c, m] = log_sum_vec(data[0, : m + 1] + data[c - 1, m::-1])
        data[0, m + 1] = log_sum_vec(lnw + data[cols, m])

    def ln(self, i: int, m: int) -> float:
        return float(self.data[i, m])

    def ln_values(self, n: int, side: int = 0) -> np.ndarray:
        return self.data[0, : n + 1].copy()

    def wrap(self, i: int, m: int) -> LogScalar:
        return LogScalar(self.ln(i, m))

    def encode(self, i: int, count: int) -> bytes:
        """Raw little-endian float64 ln values."""
        return self.data[i, :count].astype("<f8").tobytes()

    def decode(self, reader, counts: list[int], limit: int) -> None:
        """Fill every column from its record, unless a table that long
        could not have been reached under ``limit``: that is refused
        before anything is decoded."""
        n = counts[0] - 1
        projected = self._projected(n)
        if projected > limit:
            raise MemoryBudgetError(
                f"a table at n={n} needs ~{projected} bytes, budget is {limit}"
            )
        self.data = _widened(self.data, n + 1)
        for i, count in enumerate(counts):
            reader.record(count)
            self.data[i, :count] = np.frombuffer(reader.take(8 * count), dtype="<f8")


_DOMAINS = {"exact": _ExactDomain, "log": _LogDomain}


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
        # Each needed sum arity j requires every rank 2..j as an
        # intermediate, so the ranks are 2..top (top 0: none); rank j is
        # column j - 1 and folds s with column j - 2.
        self._top = max((a for a in weights if a >= 2), default=0)
        # the domain's (weight, column) pairs: each arity reads its rank;
        # arity 1 reads s
        self._dom = _DOMAINS[domain](scale, self._top, weights)
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

    def value_ln(self, n: int) -> float:
        """Natural log of s_n."""
        self._check_index(n)
        return self._dom.ln(0, n)

    def ln_values(self, side: int = 0) -> np.ndarray:
        """Vector of ln s_0 .. ln s_n; side -1 or 1 gives exact-domain
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
