"""The log-domain table, _LogTable: ln values of its columns, in float64.

SequenceTable(spec, "log") (engine docstring) loads this module the first
time it builds a log-domain table; it and foldrate.series, which it
imports, are the only parts of a table that import numpy, so
exact-domain runs never load them.

The columns store ln values, and cells are solved a block at a
time in a scaled linear domain.  Cell indices are cut into power-of-two
chunks, m in [2^(k-1), 2^k) with k = m.bit_length(), and each chunk has
one scale theta: the slope of the stored ln s over [m0/2, m0],
m0 = 2^(k-1) (ln s_1 for k = 1).  s and every column a rank's recipe
reads (engine docstring: rank 2h squares rank h, odd rank j folds s with
rank j - 1) get a mirror u_x = exp(ln s_x - theta*x), or
g_j[x] = exp(ln fold_j[x] - theta*x); the theta factors of a split of m
multiply to exp(theta*m), so g_{a+b}[m] = sum_x g_a[x] g_b[m-x] and
u_{m+1} = e^-theta sum_pairs w g_col[m].  A column no recipe reads, such
as rank 3 where the top rank is 4 (rank 4 squares rank 2), has no
mirror row.  m = 0 is the base case.

A chunk is cut into blocks of B = min(2^(k-1), 256) cells, [M, M+B)
with M = m0, m0 + B, ..., so B <= M.  Then in every split of a cell of
the block at most one part is >= M, and the block's unknowns,
U = u_{M+1..M+B} and G_j = g_j[M..M+B-1] as polynomials in t, satisfy a
causal linear system (all products mod t^B, ell_j = g_j[0..B-1], known):

    G_1    = u_M + t U
    G_j    = K_j + G_1 ell_{j-1} + ell_1 G_{j-1}      (odd j)
    G_{2h} = K_{2h} + 2 ell_h G_h
    U      = e^-theta sum_pairs w G_col

K_{a+b}[r] = sum g_a[x] g_b[M+r-x] over x < M and M+r-x < M is the
known x known part.  It is summed over tap pieces x in [a0, a1) of at
most _TAPS = 2048 entries, one np.convolve(..., "valid") per rank and
piece, over mirror rows whose entries >= M are zeroed, so it reads
indices < M only.  A piece's two operand streams, 32 KiB, stay in a
48 KiB L1d cache; one call over all M taps falls out of it once M passes
about 3000 (1.4 to 1.7 times slower than the pieces at M = 4096..16384,
on a Xeon with 48 KiB L1d per core).  A square's K is symmetric: it is
2 sum_{x < M/2} g_h[x] g_h[M+r-x] plus the square of g_h[M/2 : M/2+B]
mod t^B, M B / 2 + B^2 products against M B, so it is taken that way
where M > 2B.  Writing G_j = P_j + Q_j U, the Q_j (Q_1 = t,
Q_j = ell_1 Q_{j-1} + t ell_{j-1}, Q_{2h} = 2 ell_h Q_h),
A = e^-theta sum w Q_col and (1 - A)^-1 depend on ell and theta alone
and are computed once per chunk; A has no constant term, and
foldrate.series forms (1 - A)^-1 mod t^B by doubling in about 2 B^2 / 3
products.  A block then takes the P_j (P_1 = u_M,
P_j = K_j + u_M ell_{j-1} + ell_1 P_{j-1}, P_{2h} = K_{2h} + 2 ell_h P_h),
U = (e^-theta sum w P_col) (1 - A)^-1 and G_j = P_j + Q_j U.  Each
product mod t^B is series._low, which computes the B kept outputs only;
the chunk pads each rank's lever (ell_1, or 2 ell_h for a square), the
Q_j and (1 - A)^-1 once.  The weight factors e^-theta * w form one
column vector, so each weighted sum is one product and one sum, and the
offsets theta * x are computed once per chunk.
Every coefficient is nonnegative, the doubling 2 * x is exact, and no
step subtracts or uses an FFT, so the rounding error of each value is
relative to the value itself, in whatever order its terms are summed
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  The
ln values are np.log(.) + theta * x.

Mirrors are derived from the stored ln rows by one vectorised
np.exp(ln - theta*x) when an extend call or a chunk starts and after
each block, never from the solved values, and np.exp gives every
element the same result wherever it sits in the array.  A block that
new_n cuts through is solved whole from the same inputs and stored only
through new_n, and the next call solves it again; so stepped, resumed and
one-shot tables are bit-identical.  One window, [e^-340, e^340], is
tested where values enter the solver: the mirror entries a chunk start
derives (s's through n, other rows' through n - 1) and each block's
solved values (NaN fails).  A chunk or block that fails is computed
cell by cell by the ln kernel (scalars.log_sum_vec for each rank cell
from its recipe's ln rows, then for s); ``fallback_cells`` counts its
rank cells.  This suffices: (1) a block reads entries tested at the
chunk start or derived, a few ulps off, from values this chunk solved
inside the window, so a dot product of up to 10^7 products of two stays
below e^697; (2) an overflowing weight factor e^-theta * w or product
makes a solved value inf or NaN, which is refused; (3) an underflowing
product loses under 2^-1022, against a solved value >= e^-340 ~ 2^-490,
so under 2^-500 relative in all; (2) and (3) also cover kernel values
read, untested, by the block after a refused one; (4) the kernel stays
for specs such as sum 2 1 / sum 1000 1e-250, whose rank-1000 mirrors
leave the window (no kernel cell at n = 128, 255,744 at n = 512), and
for stored values outside it, loaded or spiked.  Neither kernel carries
a rigorous rounding radius: the values are plain float64
approximations, and no bound reads them.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .scalars import LogScalar, ln_fraction, log_sum_vec
from .series import _inverse, _low, _padded

# the window of the block solver's mirror entries and solved values
_LO, _HI = math.exp(-340.0), math.exp(340.0)
# the log domain's largest block: chunk k is cut into blocks of
# B = min(2^(k-1), _BLOCK) cells
_BLOCK = 256
# the most taps one np.convolve of the known x known part reads: its two
# operand streams, 2 * 8 * _TAPS bytes, fit a 48 KiB L1d cache
_TAPS = 2048


class _LogTable(engine.SequenceTable):
    """ln values in float64 rows, 8 bytes per value and mirror entry.

    Row i of ``data`` is column i: s, holding ln s_0 = 0, then the sum
    ranks 2..top, each folding its recipe's source columns (SequenceTable).
    ``reads`` lists s, whose u_M starts each block, and the columns a
    recipe reads, and an extend call keeps a scaled linear mirror row
    u_x = exp(ln v_x - theta*x) for each of them in that order (see the
    module docstring), re-derived from the ln rows at every chunk start
    and after every block; no solver state outlives the call.  ``plan``
    holds each rank's source columns and their mirror rows.  Every row
    has the same capacity, and the byte count is projected from it
    (_reserve).  The scale D is not needed: ln values carry no lattice.
    """

    domain_name = "log"
    recurrence = None

    def __init__(self, spec, domain: str = "log"):
        super().__init__(spec)
        weights, _ = spec.merged_weights()
        # the (ln weight, column) pairs of the weighted sum, as a vector and
        # a list
        self.lnw = np.array([ln_fraction(weights[a]) for a in sorted(weights)])
        self.wcols = [a - 1 for a in sorted(weights)]
        self.data = np.zeros((len(self._src) + 1, 1))
        self.reads = sorted({0} | {c for pair in self._src for c in pair})
        row = {c: i for i, c in enumerate(self.reads)}
        self.plan = [(a, b, row[a], row[b]) for a, b in self._src]
        self.fallback_cells = 0

    def _reserve(self, n: int, what: str, after: str = "") -> None:
        """Widen the rows to hold a table at n, once engine.check_budget,
        naming it ``what`` and ending with ``after``, has passed its bytes
        before any work: 8 per index for each ln value, mirror entry and
        offset theta * x, and the _BLOCK entries of room past n of the
        mirror rows and the offsets row, which an extend call to n
        allocates."""
        engine.check_budget(
            (len(self.data) * (n + 1) + (len(self.reads) + 1) * (n + 1 + _BLOCK)) * 8, what, after)
        if n + 1 > self.data.shape[1]:
            data = np.empty((len(self.data), n + 1))
            data[:, : self.data.shape[1]] = self.data
            self.data = data

    def _extend(self, new_n: int) -> int:
        """Compute s_{n+1}..s_{new_n}; return new_n.

        The budget is checked for all of them before any work.  m = 0 is
        the base case; from m = 1 on, cells go block by block, each block
        solved whole and stored from the first new cell through new_n, or
        computed cell by cell by the ln kernel where the solver's
        conditions fail.
        """
        self._reserve(new_n, f"extending to {new_n}", f"; table still valid at n={self.n}")
        # _BLOCK entries of room past new_n for the zeroed tail of a block
        mirror = np.empty((len(self.reads), new_n + 1 + _BLOCK))
        fallback, k, m = 0, 0, self.n
        if m == 0:
            # the base case: ln 1 = 0 in each rank, and s_1 sums the weights
            self.data[1:, 0] = 0.0
            self.data[0, 1] = log_sum_vec(self.lnw)
            m = 1
        with np.errstate(all="ignore"):
            while m < new_n:
                if m.bit_length() != k:
                    k = m.bit_length()
                    # the last chunk's arrays go before the next one's are built
                    chunk = off = None
                    chunk = self._chunk(k, mirror, m, new_n)
                off, B = chunk[:2]
                M = m - m % B
                end = min(M + B, new_n)
                if not (chunk[-1] and self._block(chunk, mirror, M, m, end)):
                    for x in range(m, end):
                        self._ln_cell(x)
                    fallback += (len(self.data) - 1) * (end - m)
                self._derive(mirror, off, M, end)
                m = end
        self.fallback_cells += fallback
        return new_n

    def _derive(self, mirror: np.ndarray, off: np.ndarray, lo: int, n: int) -> None:
        """Mirror entries from the stored ln rows and the offsets
        theta * x: s's at lo..n, each other read column's at lo..n-1,
        computed in place, with no temporary rows."""
        for u, c in zip(mirror, self.reads):
            hi = n + (c == 0)
            np.exp(np.subtract(self.data[c, lo:hi], off[lo:hi], out=u[lo:hi]), out=u[lo:hi])

    def _chunk(self, k: int, mirror: np.ndarray, n: int, new_n: int) -> tuple:
        """Set chunk k's theta, derive the mirrors through n under it, and
        return the chunk's solver constants (module docstring): the
        offsets theta * x for x up to the chunk's last solved index, the
        block length B, the low mirror entries ell = mirror[:, :B], the
        weight factors e^-theta * w by column, each rank's zero-padded
        lever (ell of its first source, doubled for a square), each
        column's Q and R = (1 - A)^-1 zero-padded for _low, and whether
        every mirror entry derived here lies in the window."""
        m0, L, ln_s = 1 << (k - 1), len(self.data), self.data[0]
        # read off stored ln s only: its slope over [m0/2, m0] (ln s_0 = 0)
        theta = float((ln_s[m0] - ln_s[m0 // 2]) / (m0 - m0 // 2))
        # scaled in place, with no integer arange alongside
        off = np.arange(min(2 * m0, new_n + _BLOCK) + 1, dtype=float)
        off *= theta
        self._derive(mirror, off, 0, n)
        # s's entries through n, each other row's through n - 1, as views
        inside = all(not u.size or _LO <= u.min() and u.max() <= _HI
                     for u in (mirror[0, : n + 1], mirror[1:, :n]))
        B = min(m0, _BLOCK)
        ell = mirror[:, :B]
        lever = [_padded(ell[ra] * (1 + (a == b))) for a, b, ra, _ in self.plan]
        # Q for s is t; rank c of sources (a, b) is lever * Q[b], plus
        # t * ell_b for a = 0, whose Q is t; Q is the part of Qp past B - 1
        # zeros, so Qp[c] is Q[c] padded
        Qp = np.zeros((L, 2 * B - 1))
        Q = Qp[:, B - 1 :]
        Q[0, 1:2] = 1.0  # t, which is 0 mod t^1
        for c, (a, b, _, rb) in enumerate(self.plan, 1):
            Q[c] = _low(lever[c - 1], Q[b])
            if a != b:
                Q[c, 1:] += ell[rb, :-1]
        # the weight factors as a column: (wc * X).sum(0) weighs the rows
        # of X; wc @ X or np.einsum would each load library code, BLAS's
        # with a buffer, that adds 0.1-0.2 MB to a short run's peak RSS
        wc = np.zeros((L, 1))
        wc[self.wcols, 0] = np.exp(self.lnw - theta)
        return off, B, ell, wc, lever, Qp, _padded(_inverse((wc * Q).sum(0))), inside

    def _block(self, chunk: tuple, mirror: np.ndarray, M: int, lo: int, end: int) -> bool:
        """Solve the block of cells M..M+B-1 and store those in lo..end-1;
        False, with nothing stored, where a solved value leaves the window."""
        data, (off, B, ell, wc, lever, Qp, Rp, _) = self.data, chunk
        um = mirror[0, M]
        # the known x known part reads indices < M only, also when this
        # block was computed before, by a call that stopped inside it
        mirror[:, M : M + B] = 0.0
        L = len(data)
        P = np.zeros((L, B))
        P[0, 0] = um
        for c, (a, b, ra, rb) in enumerate(self.plan, 1):
            # K_c over taps x < h, a square's over x < M/2 where that is
            # fewer products, summed over pieces [a0, a1) of <= _TAPS taps
            h = M // 2 if a == b and M > 2 * B else M
            for a0 in range(0, h, _TAPS):
                a1 = min(a0 + _TAPS, h)
                P[c] += np.convolve(mirror[rb, M - a1 + 1 : M - a0 + B], mirror[ra, a0:a1],
                                    "valid")
            if h < M:
                # each split and its mirror, then the splits x, m - x >= M/2
                P[c] += P[c]
                P[c] += _low(_padded(mirror[ra, h : h + B]), mirror[ra, h : h + B])
            if a != b:
                P[c] += um * ell[rb]
            P[c] += _low(lever[c - 1], P[b])
        # the solution, in place: U, then G_j = P_j + Q_j U
        U = _low(Rp, (wc * P).sum(0))
        for c in range(1, L):
            P[c] += _low(Qp[c], U)
        P[0] = U
        if not (_LO <= P.min() and P.max() <= _HI):
            return False
        ln = np.log(P)
        ln[0] += off[M + 1 : M + B + 1]
        ln[1:] += off[M : M + B]
        data[0, lo + 1 : end + 1] = ln[0, lo - M : end - M]
        data[1:, lo:end] = ln[1:, lo - M : end - M]
        return True

    def _ln_cell(self, m: int) -> None:
        """The ln kernel: each rank's cell at m from its recipe, then
        s_{m+1}, from the ln rows."""
        data = self.data
        for c, (a, b, _, _) in enumerate(self.plan, 1):
            data[c, m] = log_sum_vec(data[a, : m + 1] + data[b, m::-1])
        data[0, m + 1] = log_sum_vec(self.lnw + data[self.wcols, m])

    def _scalar(self, i: int, m: int) -> LogScalar:
        return LogScalar(float(self.data[i, m]))

    def _ln(self, m: int) -> float:
        return float(self.data[0, m])

    def ln_values(self) -> np.ndarray:
        return self.data[0, : self.n + 1].copy()

    def encode(self) -> bytes:
        """The table's cache values (foldrate.cache docstring): raw
        little-endian float64 ln values, s_0..s_n, then each rank's cells
        0..n-1."""
        n = self.n
        return (self.data[0, : n + 1].astype("<f8").tobytes()
                + self.data[1:, :n].astype("<f8").tobytes())

    def decode(self, take) -> None:
        """Fill the columns encode writes at n from take(k), which returns
        the next k bytes, unless a table that long could not have been
        reached under the budget: that is refused before anything is
        decoded."""
        n, ranks = self.n, len(self.data) - 1
        self._reserve(n, f"a table at n={n}")
        self.data[0, : n + 1] = np.frombuffer(take(8 * (n + 1)), dtype="<f8")
        self.data[1:, :n] = np.frombuffer(take(8 * ranks * n), dtype="<f8").reshape(ranks, n)
