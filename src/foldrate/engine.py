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
below; and (weight, column) pairs for the weighted sum, each sum arity
reading its rank (arity 1 reads s), then each max arity reading s.  The
value domain, _ExactDomain (exact integers) or _LogDomain (natural log
doubles), is the table's storage: it holds the columns and the memory
budget's byte count, reads values and ln values off them, encodes them
for the cache, and runs the one loop that extends them: per n, every
rank's cell and then s_n.  SequenceTable holds the plan and n, and its
extend only runs that loop and records the n reached.  A table restored
from the binary cache and extended is bit-identical to an uninterrupted
run.

The exact domain computes on Python ints.  With D the lcm of the plan's
weight denominators, t_m = D^m s_m is an integer sequence: a split of m
has s_{x_1}*...*s_{x_j} = D^-m t_{x_1}*...*t_{x_j}, so a sum fold of s
at m is D^-m times that of t, and t_n = sum_i (D * k_i) * fold_i(t)[n-1]
with t_0 = 1.  Fraction appears only at the API boundary: values, fold
cells and ln values go through the reduced t / D^m, and the cache stores
t itself.

Log-domain columns store ln values, and sum cells are computed in a
scaled linear domain.  Cell indices are cut into power-of-two chunks,
m in [2^(k-1), 2^k) with k = m.bit_length(), and each chunk has one
scale theta_k: the slope of the stored ln s over [m0/2, m0],
m0 = 2^(k-1) (ln s_1 for k = 1, 0 for m = 0).  Every column that feeds a
sum rank (s, and sum ranks 2..L-1) keeps a mirror
u_x = exp(ln v_x - theta_k * x); since the theta factors of a split
x + (m - x) = m multiply to exp(theta_k * m), a sum cell is

    ln(dot(u^s[0..m], u^prev[m..0])) + theta_k * m

with the reversed mirror making u^prev[m..0] one contiguous slice.  The
mirrors are rebuilt from the stored ln values when a chunk starts and
after load_cache; otherwise the extend loop appends each new cell's entry
inline, s's before the ranks run and each rank's right after its cell.
Resuming stays bit-identical because the rebuild and the inline append
evaluate the same math.exp(v - theta*x) on the same double v.  While
every mirror entry satisfies |ln v_x - theta_k * x| <= 340, all products
are normal doubles and the dot product cannot overflow for N below
~10^7.  A cell whose inputs leave that window, or whose dot product is
not a normal double, is computed by the ln kernel (scalars.log_sum_vec)
instead; ``fallback_cells`` counts those.  Neither kernel carries a
rigorous rounding radius: the float domain's bounds are certified only
up to float rounding.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import sys
import zlib
from fractions import Fraction

import numpy as np

from .recurrence import Op, RecurrenceSpec
from .scalars import ExactScalar, LogScalar, ln_fraction, log_sum_vec

__all__ = [
    "DEFAULT_MEMORY_LIMIT",
    "CacheCorruptError",
    "CacheError",
    "CacheMismatchError",
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


class CacheError(RuntimeError):
    """Problem with a sequence cache file."""


class CacheMismatchError(CacheError):
    """Cache file belongs to a different recurrence than the one given."""


class CacheCorruptError(CacheError):
    """Cache file is truncated, checksum-broken, or not a cache at all."""


# Mirror entries satisfy |ln v - theta*x| <= _WINDOW, so each lies in
# [e^-340, e^340], each product of two in [e^-680, e^680], and a dot
# product of fewer than ~10^7 such products is a normal double.
_WINDOW = 340.0
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


def _widened(rows: np.ndarray, total: int, at: int) -> np.ndarray:
    """``rows`` copied into new rows of ``total`` entries, starting at ``at``."""
    out = np.empty((len(rows), total))
    out[:, at : at + rows.shape[1]] = rows
    return out


class _ExactDomain:
    """Python ints t_m = D^m s_m in one list per column: s, holding
    t_0 = 1, then the sum ranks 2..top.

    ``scale`` is D, the lcm of the plan's weight denominators, and each
    plan weight k enters as the integer D*k; the boundary methods take a
    stored cell with its index m back to the reduced Fraction t / D^m.
    ``nbytes`` is the sum of ``sys.getsizeof`` over the stored ints; there
    is no upfront budget, since the size of an int is not known before it
    is computed.
    """

    tag = 0
    fallback_cells = 0

    def __init__(self, scale: int, top: int):
        self.scale = scale
        self.cols = [[1]] + [[] for _ in range(2, top + 1)]
        self.nbytes = sys.getsizeof(1)

    def weight(self, w: Fraction) -> int:
        return w.numerator * (self.scale // w.denominator)

    def extend(self, pairs, n0: int, new_n: int, limit: int) -> int:
        """Compute s_{n0+1}..s_{new_n}; return the n reached.

        Stops, with the table valid, before any n that would start with
        more than ``limit`` bytes stored.
        """
        cols, nbytes = self.cols, self.nbytes
        s, steps = cols[0], list(zip(cols[1:], cols))
        mul, getsizeof = operator.mul, sys.getsizeof
        try:
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
                v = sum(w * cols[i][m] for w, i in pairs)
                s.append(v)
                nbytes += getsizeof(v)
        except BaseException:
            # a call cut short leaves the table at n0
            del s[n0 + 1 :]
            for col in cols[1:]:
                del col[n0:]
            raise
        self.nbytes = nbytes
        return new_n

    def rational(self, i: int, m: int) -> Fraction:
        return Fraction(self.cols[i][m], self.scale ** m)

    def ln(self, i: int, m: int) -> float:
        return ln_fraction(self.rational(i, m))

    def ln_values(self, n: int) -> np.ndarray:
        return np.array([self.ln(0, m) for m in range(n + 1)], dtype=np.float64)

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

    def decode(self, reader: "_Reader", counts: list[int], limit: int) -> None:
        """Fill every column from its record, then refuse a table that an
        uninterrupted extend under ``limit`` would have stopped short of:
        one whose bytes before its last n exceed the limit."""
        for i, count in enumerate(counts):
            reader.record(count)
            self.cols[i] = [int.from_bytes(reader.take(reader.u("<Q")), "little")
                            for _ in range(count)]
        getsizeof = sys.getsizeof
        self.nbytes = sum(sum(map(getsizeof, col)) for col in self.cols)
        n = counts[0] - 1
        # the last n added s_n and each rank's cell at n - 1: every column's last value
        before = self.nbytes - sum(getsizeof(col[-1]) for col in self.cols) if n else 0
        if before > limit:
            raise MemoryBudgetError(
                f"a table at n={n} holds {before} bytes before its last step, "
                f"budget is {limit}"
            )


class _LogDomain:
    """ln values in float64 rows, 8 bytes per value and mirror entry.

    Row i of ``data`` is column i: s, holding ln s_0 = 0, then the sum
    ranks 2..top.  Columns 0..top-2 feed a sum rank and keep the scaled
    linear mirror u_x = exp(ln v_x - theta*x) that sum cells read (see the
    module docstring): row i of ``rev`` holds column i's u_x at index
    cap-1-x, so the reversed prefix u_m..u_0 a cell needs is the
    contiguous tail ``rev[i, cap-1-m:]``, and the one row of ``fwd`` holds
    s's u_x at index x.  Every row has the same capacity; the record
    counts come from the table's n.  Fallback cells work on the ln rows
    directly.  Each instance owns its chunk state, carried across extend
    calls, so tables never share it.  The scale D is not needed: ln
    values carry no lattice.
    """

    tag = 1

    def __init__(self, scale: int, top: int):
        feeds = max(top - 1, 0)
        self.data = np.zeros((max(top, 1), 1))
        self.rev = np.empty((feeds, 1))
        self.fwd = np.empty((min(feeds, 1), 1))
        # the chunk whose theta the mirrors hold (-1: none), and per column
        # whether its mirror is usable for the rest of that chunk
        self._chunk = -1
        self._theta = 0.0
        self._ok: list[bool] = []
        self.fallback_cells = 0

    @staticmethod
    def weight(w: Fraction) -> float:
        return ln_fraction(w)

    def _grow(self, total: int) -> None:
        """Give every row room for ``total`` entries, keeping what it holds."""
        cap = self.data.shape[1]
        if total > cap:
            self.data = _widened(self.data, total, 0)
            self.rev = _widened(self.rev, total, total - cap)
            self.fwd = _widened(self.fwd, total, 0)

    def _projected(self, n: int) -> int:
        """Bytes of a table at n: 8 per index for each ln value and mirror entry."""
        return (len(self.data) + len(self.rev) + len(self.fwd)) * (n + 1) * 8

    def _reserve(self, n0: int, new_n: int, limit: int) -> None:
        """Reject an extension the budget cannot hold before doing any work."""
        projected = self._projected(new_n)
        if projected > limit:
            raise MemoryBudgetError(
                f"extending to {new_n} needs ~{projected} bytes, "
                f"budget is {limit}; table still valid at n={n0}"
            )
        self._grow(new_n + 1)

    def _rebuild(self, i: int, count: int, theta: float) -> bool:
        """Mirror entries 0..count-1 of column i under ``theta``; False at
        the first entry that leaves the window.

        Each entry is math.exp(v - theta*x) of the stored value v as a
        Python float, the expression the extend loop appends a new cell's
        entry with, so a rebuilt mirror equals an appended one bit for bit.
        """
        rev, fwd = self.rev[i], self.fwd[0] if i == 0 else None
        top = len(rev) - 1
        for x, v in enumerate(self.data[i, :count].tolist()):
            a = v - theta * x
            if not abs(a) <= _WINDOW:
                return False
            u = math.exp(a)
            rev[top - x] = u
            if fwd is not None:
                fwd[x] = u
        return True

    def extend(self, pairs, n0: int, new_n: int, limit: int) -> int:
        """Compute s_{n0+1}..s_{new_n}; return new_n.

        The budget is checked for all of them before any work.  For each
        n, with m = n - 1: a new chunk sets theta and rebuilds every mirror
        through m - 1; s's mirror gains entry m; each rank's cell is one
        dot product (or the ln kernel), and its mirror gains entry m right
        after it; s_n is the log-add of the weighted cells in pair order.
        """
        self._reserve(n0, new_n, limit)
        datas, revs = list(self.data), list(self.rev)
        sdata, ranks, feeds = datas[0], range(1, len(datas)), len(revs)
        fwd = self.fwd[0] if feeds else None
        top = self.data.shape[1] - 1
        (w0, i0), rest = pairs[0], pairs[1:]
        cells = [0.0] * len(datas)
        chunk, theta, ok = self._chunk, self._theta, self._ok
        self._chunk = -1  # if the loop is cut short, rebuild next time
        exp, log, log1p, dot = math.exp, math.log, math.log1p, np.dot
        fallback = 0
        sm = float(sdata[n0])
        for n in range(n0 + 1, new_n + 1):
            m = n - 1
            cells[0] = sm
            if ranks:
                k = m.bit_length()
                if k != chunk:
                    chunk, theta = k, _chunk_scale(sdata, k)
                    ok = [i < feeds and self._rebuild(i, m, theta) for i in range(len(datas))]
                tm = theta * m
                if ok[0]:
                    a = sm - tm
                    if abs(a) <= _WINDOW:
                        fwd[m] = revs[0][top - m] = exp(a)
                    else:
                        ok[0] = False
                head = fwd[: m + 1]
                for i in ranks:
                    j, v = i - 1, None
                    if ok[0] and ok[j]:
                        d = float(dot(head, revs[j][top - m :]))
                        if _TINY <= d <= _HUGE:
                            v = log(d) + tm
                    if v is None:
                        fallback += 1
                        v = log_sum_vec(sdata[: m + 1] + datas[j][m::-1])
                    datas[i][m] = cells[i] = v
                    if ok[i]:
                        a = v - tm
                        if abs(a) <= _WINDOW:
                            revs[i][top - m] = exp(a)
                        else:
                            ok[i] = False
            # log_add(total, term) on finite operands, inline
            total = w0 + cells[i0]
            for w, i in rest:
                term = w + cells[i]
                d = total - term
                total = total + log1p(exp(-d)) if d >= 0.0 else term + log1p(exp(d))
            sdata[n] = sm = total
        self._chunk, self._theta, self._ok = chunk, theta, ok
        self.fallback_cells += fallback
        return new_n

    def ln(self, i: int, m: int) -> float:
        return float(self.data[i, m])

    def ln_values(self, n: int) -> np.ndarray:
        return self.data[0, : n + 1].copy()

    def wrap(self, i: int, m: int) -> LogScalar:
        return LogScalar(self.ln(i, m))

    def encode(self, i: int, count: int) -> bytes:
        """Raw little-endian float64 ln values."""
        return self.data[i, :count].astype("<f8").tobytes()

    def decode(self, reader: "_Reader", counts: list[int], limit: int) -> None:
        """Fill every column from its record, unless a table that long
        could not have been reached under ``limit``: that is refused
        before anything is decoded."""
        n = counts[0] - 1
        projected = self._projected(n)
        if projected > limit:
            raise MemoryBudgetError(
                f"a table at n={n} needs ~{projected} bytes, budget is {limit}"
            )
        self._grow(n + 1)
        for i, count in enumerate(counts):
            reader.record(count)
            self.data[i, :count] = np.frombuffer(reader.take(8 * count), dtype="<f8")


_DOMAINS = {"exact": _ExactDomain, "log": _LogDomain}
_DOMAIN_BY_TAG = {d.tag: name for name, d in _DOMAINS.items()}


def _merged_plan(spec: RecurrenceSpec):
    """Per-family weight totals keyed by arity.

    Equal-arity terms of a family share one fold, so their weights add.
    Max totals all weight s but stay one per arity, not merged into the
    arity-1 sum weight, so the log-add of s_n sees the operands it saw
    when max folds had columns."""
    sums: dict[int, Fraction] = {}
    maxes: dict[int, Fraction] = {}
    for t in spec.terms:
        bucket = sums if t.op is Op.SUM else maxes
        bucket[t.arity] = bucket.get(t.arity, Fraction(0)) + t.weight
    return sums, maxes


class SequenceTable:
    """The prefix s_0..s_n of a sequence plus the fold columns to extend it."""

    def __init__(self, spec: RecurrenceSpec, domain: str = "log",
                 memory_limit: int = DEFAULT_MEMORY_LIMIT):
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r} (expected 'exact' or 'log')")
        self.spec = spec
        self.domain_name = domain
        self.memory_limit = memory_limit
        sums, maxes = _merged_plan(spec)
        weights = [*sums.values(), *maxes.values()]
        # Each needed sum arity j requires every rank 2..j as an
        # intermediate, so the ranks are 2..top (top 0: none); rank j is
        # column j - 1 and folds s with column j - 2.
        self._top = max((a for a in sums if a >= 2), default=0)
        dom = self._dom = _DOMAINS[domain](math.lcm(*(w.denominator for w in weights)),
                                           self._top)
        # (weight, column): each sum arity reads its rank (arity 1 reads
        # s), then each max arity reads s
        self._pairs = [(dom.weight(w), a - 1) for a, w in sorted(sums.items())]
        self._pairs += [(dom.weight(w), 0) for _, w in sorted(maxes.items())]
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
        self.n = self._dom.extend(self._pairs, self.n, new_n, self.memory_limit)
        if self.n < new_n:
            raise MemoryBudgetError(
                f"memory budget {self.memory_limit} bytes exhausted at n={self.n}; "
                f"table still valid there"
            )
        return self

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

    def ln_values(self) -> np.ndarray:
        """Vector of ln s_0 .. ln s_n."""
        return self._dom.ln_values(self.n)

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
        """Values per stored column: n + 1 for s, n for each sum rank."""
        return [self.n + 1] + [self.n] * (self.table_count - 1)

    def __repr__(self):
        return (f"SequenceTable(domain={self.domain_name!r}, n={self.n}, "
                f"tables={self.table_count})")


def compute_sequence(spec: RecurrenceSpec, n: int, domain: str = "log",
                     memory_limit: int = DEFAULT_MEMORY_LIMIT) -> SequenceTable:
    """Build a table and extend it to n in one call."""
    return SequenceTable(spec, domain=domain, memory_limit=memory_limit).extend(n)


# -- cache persistence ---------------------------------------------------
#
# Layout of version 3, little-endian (version 1 also held max ranks, and
# versions 1 and 2 stored each exact value as a reduced Fraction):
#   magic "FRSQ" | u16 version | 32 bytes spec digest | u8 domain tag
#   | u64 n | u16 max sum rank (0 = none)
#   | record for s (n+1 values) | records for sum ranks 2..
#   | u32 crc32 of everything above
# A record is u64 count followed by the values as the domain encodes them:
# per value a u64 byte length and the little-endian bytes of t_m (exact),
# or the little-endian float64 ln value (log).

_MAGIC = b"FRSQ"
_VERSION = 3


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise CacheCorruptError("cache file is truncated")
        chunk = self.data[self.pos : self.pos + k]
        self.pos += k
        return chunk

    def u(self, fmt: str) -> int:
        (v,) = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return v

    def record(self, expected: int) -> None:
        """Read a record's value count, which must be ``expected``."""
        count = self.u("<Q")
        if count != expected:
            raise CacheCorruptError(f"record has {count} values, expected {expected}")


def save_cache(table: SequenceTable, path) -> None:
    """Write a table (sequence and fold columns) to a cache file."""
    dom = table._dom
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<H", _VERSION)
    buf += table.spec.digest()
    buf += struct.pack("<BQ", dom.tag, table.n)
    buf += struct.pack("<H", table._top)
    for i, count in enumerate(table._record_counts()):
        buf += struct.pack("<Q", count)
        buf += dom.encode(i, count)
    buf += struct.pack("<I", zlib.crc32(buf))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(buf)
        os.replace(tmp, path)
    except OSError as exc:
        # name the cache file, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def load_cache(path, spec: RecurrenceSpec,
               memory_limit: int = DEFAULT_MEMORY_LIMIT) -> SequenceTable:
    """Restore a table for ``spec`` from a cache file written by save_cache.

    Raises MemoryBudgetError if extending a fresh table under
    ``memory_limit`` could not have reached the cached n.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 2 + 32 + 1 + 8 + 2 + 4:
        raise CacheCorruptError("cache file is too short")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise CacheCorruptError("cache checksum mismatch")
    reader = _Reader(body)
    if reader.take(4) != _MAGIC:
        raise CacheCorruptError("not a sequence cache file")
    version = reader.u("<H")
    if version != _VERSION:
        raise CacheCorruptError(f"unsupported cache version {version}")
    digest = reader.take(32)
    if digest != spec.digest():
        raise CacheMismatchError("cache file was written for a different recurrence")
    tag = reader.u("<B")
    if tag not in _DOMAIN_BY_TAG:
        raise CacheCorruptError(f"unknown domain tag {tag}")
    n = reader.u("<Q")
    top = reader.u("<H")

    table = SequenceTable(spec, domain=_DOMAIN_BY_TAG[tag], memory_limit=memory_limit)
    if top != table._top:
        raise CacheCorruptError("fold table layout does not match the recurrence")
    # log mirrors are rebuilt from the loaded ln values on the first new cell
    table.n = n
    table._dom.decode(reader, table._record_counts(), memory_limit)
    if reader.pos != len(body):
        raise CacheCorruptError("trailing bytes after the last record")
    return table
