"""The log value domain: ln values of the table's columns, in float64.

SequenceTable (engine docstring) loads this module the first time it
builds a log-domain table; it is the only part of a table that imports
numpy, so exact-domain runs never load it.

The columns store ln values, and cells are solved a block at a
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
import sys

import numpy as np

from .engine import MemoryBudgetError
from .scalars import LogScalar, ln_fraction, log_sum_vec

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
