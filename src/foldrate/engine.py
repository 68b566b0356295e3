"""Incremental sequence computation via per-arity fold tables.

For each operator family the engine keeps the j-fold convolution of the
sequence with itself: ``cfold[j][m]`` is the sum over all ordered splits
x_1+...+x_j = m of s_{x_1}*...*s_{x_j}, and ``dfold[j][m]`` is the max over
the same splits.  Both satisfy the same one-step recurrence

    fold[j][m] = reduce_x s_x (*) fold[j-1][m - x],    fold[1][m] = s_m

with reduce = sum or max, so extending the sequence from N to N' costs one
new cell per table per step and O(L * N'^2) scalar work overall.  s_n itself
is assembled as the weighted sum of each term's fold at m = n - 1.

The same driver runs in two value domains: exact big rationals and natural
log doubles (see scalars).  A table can be saved to and restored from a
compact binary cache; restoring and extending gives bit-identical results
to an uninterrupted run.

Log-domain tables store ln values, and max cells are a max of sums of
them.  Sum cells are computed in a scaled linear domain instead.  Cell
indices are cut into power-of-two chunks, m in [2^(k-1), 2^k) with
k = m.bit_length(), and each chunk has one scale theta_k: the slope of
the stored ln s over [m0/2, m0], m0 = 2^(k-1) (ln s_1 for k = 1, 0 for
m = 0).  Every column that feeds a sum rank (s, and cfold[2..L-1]) keeps
a mirror u_x = exp(ln v_x - theta_k * x); since the theta factors of a
split x + (m - x) = m multiply to exp(theta_k * m), a sum cell is

    ln(dot(u^s[0..m], u^prev[m..0])) + theta_k * m

with the reversed mirror making u^prev[m..0] one contiguous slice.  The
mirrors are rebuilt from the stored ln values when a chunk starts and
after load_cache, through the same exp loop that appends each new cell,
so resuming stays bit-identical.  While every mirror entry satisfies
|ln v_x - theta_k * x| <= 340, all products are normal doubles and the
dot product cannot overflow for N below ~10^7.  A cell whose inputs leave
that window, or whose dot product is not a normal double, is computed by
the ln kernel (scalars.log_sum_vec) instead; ``fallback_cells`` counts
those.  Neither kernel carries a rigorous rounding radius: the float
domain's bounds are certified only up to float rounding, which is not
yet accounted for.
"""

from __future__ import annotations

import logging
import math
import os
import struct
import sys
import zlib
from fractions import Fraction

import numpy as np

from .recurrence import Op, RecurrenceSpec
from .scalars import ExactScalar, LogScalar, ln_fraction, log_add, log_sum_vec

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

log = logging.getLogger(__name__)

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


class _FloatVec:
    """Fixed-capacity float64 column; ``extend`` reserves before appending.

    A column that feeds a sum rank also carries a ``_Mirror``.
    """

    __slots__ = ("data", "n", "mirror")

    def __init__(self):
        self.data = np.empty(1, dtype=np.float64)
        self.n = 0
        self.mirror = None

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return float(self.data[i])

    def append(self, x: float):
        self.data[self.n] = x
        self.n += 1

    def reserve(self, total: int):
        if total > len(self.data):
            grown = np.empty(total, dtype=np.float64)
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        if self.mirror is not None:
            self.mirror.reserve(total)

    def view(self) -> np.ndarray:
        return self.data[: self.n]


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


class _Mirror:
    """Scaled linear copy u_x = exp(ln v_x - theta*x) of an ln column.

    ``rev`` holds u_x at index cap-1-x, so the reversed prefix u_m..u_0 a
    convolution cell needs is the contiguous tail ``rev[cap-1-m:]``;
    ``fwd`` (kept for s only) holds u_x at index x.  Entries are valid for
    one chunk's theta; ``ok`` turns false for the rest of the chunk once
    an entry leaves the window.
    """

    __slots__ = ("fwd", "rev", "n", "chunk", "ok")

    def __init__(self, forward: bool):
        self.fwd = np.empty(1, dtype=np.float64) if forward else None
        self.rev = np.empty(1, dtype=np.float64)
        self.n = 0
        self.chunk = -1
        self.ok = True

    def reserve(self, total: int):
        cap = len(self.rev)
        if total <= cap:
            return
        rev = np.empty(total, dtype=np.float64)
        rev[total - self.n :] = self.rev[cap - self.n :]
        self.rev = rev
        if self.fwd is not None:
            fwd = np.empty(total, dtype=np.float64)
            fwd[: self.n] = self.fwd[: self.n]
            self.fwd = fwd

    def sync(self, ln: np.ndarray, m: int, theta: float, chunk: int) -> bool:
        """Cover entries 0..m of ``ln`` under ``chunk``'s theta; True if usable.

        A rebuild after a chunk change (or on a fresh table after
        load_cache) and the one-entry append of each new cell run through
        this same loop, so both give bit-identical entries.
        """
        if chunk != self.chunk:
            self.chunk, self.n, self.ok = chunk, 0, True
        if self.ok and self.n <= m:
            top = len(self.rev) - 1
            for x, v in enumerate(ln[self.n : m + 1].tolist(), self.n):
                a = v - theta * x
                if not abs(a) <= _WINDOW:
                    self.ok = False
                    break
                u = math.exp(a)
                self.rev[top - x] = u
                if self.fwd is not None:
                    self.fwd[x] = u
        self.n = max(self.n, m + 1)
        return self.ok


class _ExactDomain:
    """Arithmetic strategy on plain Fractions stored in Python lists."""

    name = "exact"
    tag = 0
    fallback_cells = 0

    @staticmethod
    def from_rational(q: Fraction):
        return Fraction(q)

    @staticmethod
    def new_store():
        return []

    @staticmethod
    def conv_sum(s, c, m):
        return sum(s[x] * c[m - x] for x in range(m + 1))

    @staticmethod
    def conv_max(s, d, m):
        return max(s[x] * d[m - x] for x in range(m + 1))

    @staticmethod
    def combine(contributions):
        # contributions: (weight_raw, fold_raw) pairs
        total = Fraction(0)
        for w, v in contributions:
            total += w * v
        return total

    @staticmethod
    def ln(v) -> float:
        return ln_fraction(v)

    @staticmethod
    def wrap(v) -> ExactScalar:
        return ExactScalar(v)

    @staticmethod
    def nbytes(v) -> int:
        # rough: limb payload plus object overhead
        return 64 + (v.numerator.bit_length() + v.denominator.bit_length()) // 8


class _LogDomain:
    """Arithmetic strategy on ln-valued float64 columns.

    Sum cells are computed from scaled linear mirrors (one dot product
    per cell, see the module docstring); max cells and fallback sum cells
    work on the ln columns directly.  Each instance owns its scratch
    buffer and its chunk scale, so tables never share state.
    """

    name = "log"
    tag = 1

    def __init__(self):
        self._scratch = np.empty(256, dtype=np.float64)
        self._chunk = -1
        self._theta = 0.0
        self.fallback_cells = 0

    @staticmethod
    def from_rational(q: Fraction):
        return ln_fraction(q)

    @staticmethod
    def new_store():
        return _FloatVec()

    def _cell(self, s, c, m) -> np.ndarray:
        k = m + 1
        if len(self._scratch) < k:
            self._scratch = np.empty(max(k, 2 * len(self._scratch)), dtype=np.float64)
        buf = self._scratch[:k]
        np.add(s.data[:k], c.data[m::-1], out=buf)
        return buf

    def conv_sum(self, s, c, m):
        k = m.bit_length()
        if k != self._chunk:
            self._chunk, self._theta = k, _chunk_scale(s.data, k)
        theta = self._theta
        if s.mirror.sync(s.data, m, theta, k) and c.mirror.sync(c.data, m, theta, k):
            rev = c.mirror.rev
            d = float(np.dot(s.mirror.fwd[: m + 1], rev[len(rev) - 1 - m :]))
            if _TINY <= d <= _HUGE:
                return math.log(d) + theta * m
        self.fallback_cells += 1
        return log_sum_vec(self._cell(s, c, m))

    def conv_max(self, s, d, m):
        return float(self._cell(s, d, m).max())

    @staticmethod
    def combine(contributions):
        total = None
        for w, v in contributions:
            term = w + v
            total = term if total is None else log_add(total, term)
        return total

    @staticmethod
    def ln(v) -> float:
        return v

    @staticmethod
    def wrap(v) -> LogScalar:
        return LogScalar(v)

    @staticmethod
    def nbytes(v) -> int:
        return 8


_DOMAINS = {"exact": _ExactDomain, "log": _LogDomain}
_DOMAIN_BY_TAG = {d.tag: name for name, d in _DOMAINS.items()}


def _merged_plan(spec: RecurrenceSpec):
    """Per-family weight totals keyed by arity.

    Equal-arity terms of the same family share one fold table, and because
    every term's contribution to s_n is added, their weights merge by
    addition in both families: k_a*fold + k_b*fold = (k_a + k_b)*fold holds
    for the shared sum fold and equally for the shared max fold.
    """
    sums: dict[int, Fraction] = {}
    maxes: dict[int, Fraction] = {}
    for t in spec.terms:
        bucket = sums if t.op is Op.SUM else maxes
        bucket[t.arity] = bucket.get(t.arity, Fraction(0)) + t.weight
    return sums, maxes


class SequenceTable:
    """The prefix s_0..s_n of a sequence plus the fold tables to extend it."""

    def __init__(self, spec: RecurrenceSpec, domain: str = "log",
                 memory_limit: int = DEFAULT_MEMORY_LIMIT):
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r} (expected 'exact' or 'log')")
        self.spec = spec
        self.domain_name = domain
        self.memory_limit = memory_limit
        dom = _DOMAINS[domain]()
        self._dom = dom

        sums, maxes = _merged_plan(spec)
        # Each needed arity j requires every rank 2..j of its own family as
        # intermediates, so the rank range is simply 2..max(family arities).
        self._sum_ranks = list(range(2, max(sums) + 1)) if sums and max(sums) >= 2 else []
        self._max_ranks = list(range(2, max(maxes) + 1)) if maxes and max(maxes) >= 2 else []
        self._plan = (
            [(Op.SUM, arity, dom.from_rational(w)) for arity, w in sorted(sums.items())]
            + [(Op.MAX, arity, dom.from_rational(w)) for arity, w in sorted(maxes.items())]
        )

        self._s = dom.new_store()
        self._cfold = {j: dom.new_store() for j in self._sum_ranks}
        self._dfold = {j: dom.new_store() for j in self._max_ranks}
        # float64 columns per table length: the ln tables plus, in the log
        # domain, the sum kernel's mirrors (forward and reversed for s, one
        # reversed per sum rank that feeds the next rank)
        self._columns = self.table_count
        if isinstance(dom, _LogDomain) and self._sum_ranks:
            self._s.mirror = _Mirror(forward=True)
            for j in self._sum_ranks[:-1]:
                self._cfold[j].mirror = _Mirror(forward=False)
            self._columns += len(self._sum_ranks) + 1
        one = dom.from_rational(Fraction(1))
        self._s.append(one)
        self._bytes = dom.nbytes(one)
        self.n = 0

    # -- extension --------------------------------------------------------

    @property
    def table_count(self) -> int:
        return 1 + len(self._sum_ranks) + len(self._max_ranks)

    def extend(self, new_n: int) -> "SequenceTable":
        """Grow the table so values up to s_{new_n} are available."""
        if new_n < self.n:
            raise ValueError(f"table already extends to {self.n}, cannot shrink to {new_n}")
        if new_n == self.n:
            return self
        dom = self._dom
        if isinstance(dom, _LogDomain):
            projected = self._columns * (new_n + 1) * 8
            if projected > self.memory_limit:
                raise MemoryBudgetError(
                    f"extending to {new_n} needs ~{projected} bytes, "
                    f"budget is {self.memory_limit}; table still valid at n={self.n}"
                )
            self._s.reserve(new_n + 1)
            for store in self._cfold.values():
                store.reserve(new_n)
            for store in self._dfold.values():
                store.reserve(new_n)

        s = self._s
        nbytes = dom.nbytes
        for n in range(self.n + 1, new_n + 1):
            if self._bytes > self.memory_limit:
                raise MemoryBudgetError(
                    f"memory budget {self.memory_limit} bytes exhausted at n={self.n}; "
                    f"table still valid there"
                )
            m = n - 1
            added = 0
            prev = s
            for j in self._sum_ranks:
                cell = dom.conv_sum(s, prev, m)
                table = self._cfold[j]
                table.append(cell)
                added += nbytes(cell)
                prev = table
            prev = s
            for j in self._max_ranks:
                cell = dom.conv_max(s, prev, m)
                table = self._dfold[j]
                table.append(cell)
                added += nbytes(cell)
                prev = table
            value = dom.combine(
                [(w, self._fold_raw(op, arity, m)) for op, arity, w in self._plan]
            )
            s.append(value)
            self._bytes += added + nbytes(value)
            self.n = n
        return self

    @property
    def fallback_cells(self) -> int:
        """Log-domain sum cells this object computed with the ln kernel
        because their inputs left the mirrors' window (0 in the exact domain)."""
        return self._dom.fallback_cells

    def _fold_raw(self, op: Op, arity: int, m: int):
        if arity == 1:
            return self._s[m]
        return (self._cfold if op is Op.SUM else self._dfold)[arity][m]

    # -- access -----------------------------------------------------------

    def _check_index(self, n: int):
        if not 0 <= n <= self.n:
            raise IndexError(f"s_{n} not computed; table extends to {self.n}")

    def value(self, n: int):
        """s_n as a scalar of this table's domain."""
        self._check_index(n)
        return self._dom.wrap(self._s[n])

    def value_ln(self, n: int) -> float:
        """Natural log of s_n."""
        self._check_index(n)
        return self._dom.ln(self._s[n])

    def ln_values(self) -> np.ndarray:
        """Vector of ln s_0 .. ln s_n."""
        if isinstance(self._dom, _LogDomain):
            return self._s.view().copy()
        return np.array([ln_fraction(v) for v in self._s], dtype=np.float64)

    def sum_fold(self, j: int, m: int):
        """j-fold sum-convolution cell at index m, as a domain scalar."""
        return self._fold_cell(self._cfold, j, m)

    def max_fold(self, j: int, m: int):
        """j-fold max-convolution cell at index m, as a domain scalar."""
        return self._fold_cell(self._dfold, j, m)

    def _fold_cell(self, family, j, m):
        if j == 1:
            self._check_index(m)
            return self._dom.wrap(self._s[m])
        if j not in family:
            raise KeyError(f"no rank-{j} fold table for this spec")
        if not 0 <= m < self.n:
            raise IndexError(f"fold cell {m} not computed; table extends to {self.n}")
        return self._dom.wrap(family[j][m])

    def __repr__(self):
        return (f"SequenceTable(domain={self.domain_name!r}, n={self.n}, "
                f"tables={self.table_count})")


def compute_sequence(spec: RecurrenceSpec, n: int, domain: str = "log",
                     memory_limit: int = DEFAULT_MEMORY_LIMIT) -> SequenceTable:
    """Build a table and extend it to n in one call."""
    return SequenceTable(spec, domain=domain, memory_limit=memory_limit).extend(n)


# -- cache persistence ---------------------------------------------------
#
# Layout (all integers little-endian):
#   magic "FRSQ" | u16 version | 32 bytes spec digest | u8 domain tag
#   | u64 n | u16 max sum rank (0 = none) | u16 max max rank
#   | record for s (n+1 values) | records for sum ranks 2.. | max ranks 2..
#   | u32 crc32 of everything above
# A record is u64 count followed by the encoded values.  Log values are raw
# float64.  Exact values are sign byte, u64 numerator length, numerator
# bytes, u64 denominator length, denominator bytes.

_MAGIC = b"FRSQ"
_VERSION = 1


def _encode_store(dom, store) -> bytes:
    out = bytearray(struct.pack("<Q", len(store)))
    if isinstance(dom, _LogDomain):
        out += store.view().astype("<f8").tobytes()
    else:
        for v in store:
            num, den = v.numerator, v.denominator
            nb = num.to_bytes((num.bit_length() + 7) // 8 or 1, "little")
            db = den.to_bytes((den.bit_length() + 7) // 8 or 1, "little")
            out += struct.pack("<BQ", 0 if num >= 0 else 1, len(nb))
            out += nb
            out += struct.pack("<Q", len(db))
            out += db
    return bytes(out)


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


def _decode_store(dom, reader: _Reader, expected: int, store) -> None:
    """Fill ``store`` (fresh from the table constructor) with one record."""
    count = reader.u("<Q")
    if count != expected:
        raise CacheCorruptError(f"record has {count} values, expected {expected}")
    if isinstance(dom, _LogDomain):
        store.reserve(count)
        store.data[:count] = np.frombuffer(reader.take(8 * count), dtype="<f8")
        store.n = count
        return
    values = []
    for _ in range(count):
        sign = reader.u("<B")
        if sign not in (0, 1):
            raise CacheCorruptError("bad sign byte in exact record")
        num = int.from_bytes(reader.take(reader.u("<Q")), "little")
        den = int.from_bytes(reader.take(reader.u("<Q")), "little")
        if den == 0:
            raise CacheCorruptError("zero denominator in exact record")
        if sign:
            num = -num
        values.append(Fraction(num, den))
    store[:] = values


def save_cache(table: SequenceTable, path) -> None:
    """Write a table (sequence and fold tables) to a cache file."""
    dom = table._dom
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<H", _VERSION)
    buf += table.spec.digest()
    buf += struct.pack("<BQ", dom.tag, table.n)
    buf += struct.pack(
        "<HH",
        table._sum_ranks[-1] if table._sum_ranks else 0,
        table._max_ranks[-1] if table._max_ranks else 0,
    )
    buf += _encode_store(dom, table._s)
    for j in table._sum_ranks:
        buf += _encode_store(dom, table._cfold[j])
    for j in table._max_ranks:
        buf += _encode_store(dom, table._dfold[j])
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(bytes(buf))
    os.replace(tmp, path)


def load_cache(path, spec: RecurrenceSpec,
               memory_limit: int = DEFAULT_MEMORY_LIMIT) -> SequenceTable:
    """Restore a table for ``spec`` from a cache file written by save_cache."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 2 + 32 + 1 + 8 + 4 + 4:
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
    sum_rank = reader.u("<H")
    max_rank = reader.u("<H")

    table = SequenceTable(spec, domain=_DOMAIN_BY_TAG[tag], memory_limit=memory_limit)
    if (sum_rank != (table._sum_ranks[-1] if table._sum_ranks else 0)
            or max_rank != (table._max_ranks[-1] if table._max_ranks else 0)):
        raise CacheCorruptError("fold table layout does not match the recurrence")
    dom = table._dom
    # the stores keep the mirrors the constructor attached; those start
    # empty and are rebuilt from the loaded ln values on the first new cell
    _decode_store(dom, reader, n + 1, table._s)
    for j in table._sum_ranks:
        _decode_store(dom, reader, n, table._cfold[j])
    for j in table._max_ranks:
        _decode_store(dom, reader, n, table._dfold[j])
    if reader.pos != len(body):
        raise CacheCorruptError("trailing bytes after the last record")
    table.n = n
    stores = [table._s, *table._cfold.values(), *table._dfold.values()]
    if isinstance(dom, _LogDomain):
        table._bytes = 8 * sum(len(store) for store in stores)
    else:
        table._bytes = sum(dom.nbytes(v) for store in stores for v in store)
    return table
