"""Sequence cache files: the record layout, save_cache and load_cache.

Layout of version 6, little-endian:

    magic "FRSQ" | u16 version | 32 bytes spec digest | u8 domain tag
    | u64 n | u64 table count (the max sum rank, or 1: none) | u8 path
    | path 1: the recurrence record
    | record for s (n+1 values) | path 0: records for sum ranks 2..
    | u32 crc32 of everything above

Path 0 is a table on the engine, path 1 an exact table on a proved
recurrence, which holds no fold columns.  A record is u64 count followed
by the values as the table encodes them: per value a u64 byte length and
the little-endian bytes of t_m (exact), or the little-endian float64 ln
value (log).  The recurrence record is holonomic's to write, admit and
accept (holonomic docstring, "Persist."); this module only places its
bytes.  Versions 1 to 5 are refused: 5 held a start in the recurrence
record, 4 the max sum rank in a u16, which overflowed past 65,535 ranks,
3 had no path byte, 1 held max ranks, and 1 and 2 stored Fractions.
"""

from __future__ import annotations

import os
import struct
import zlib

from .engine import SequenceTable
from .recurrence import RecurrenceSpec

__all__ = ["CacheCorruptError", "CacheError", "CacheMismatchError", "load_cache",
           "save_cache"]

_MAGIC = b"FRSQ"
_VERSION = 6
_HEADER = struct.Struct("<BQQB")  # domain tag, n, table count, path
_DOMAINS = ("exact", "log")  # by domain tag


class CacheError(RuntimeError):
    """Problem with a sequence cache file."""


class CacheMismatchError(CacheError):
    """Cache file belongs to a different recurrence than the one given."""


class CacheCorruptError(CacheError):
    """Cache file is truncated, checksum-broken, or not a cache at all."""


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

    def record(self, expected: int) -> int:
        """Read a record's value count, which must be ``expected``."""
        count = self.u("<Q")
        if count != expected:
            raise CacheCorruptError(f"record has {count} values, expected {expected}")
        return count


def _record_counts(table: SequenceTable) -> list[int]:
    """Values per stored column: n + 1 for s, n for each sum rank (no
    rank on a recurrence)."""
    return [table.n + 1] + [table.n] * (0 if table.recurrence else table.table_count - 1)


def save_cache(table: SequenceTable, path) -> None:
    """Write a table (sequence and fold columns, or its recurrence) to a cache file."""
    rec = table.recurrence
    buf = bytearray(_MAGIC)
    buf += struct.pack("<H", _VERSION)
    buf += table.spec.digest()
    buf += _HEADER.pack(_DOMAINS.index(table.domain_name), table.n, table.table_count,
                        rec is not None)
    if rec:
        buf += rec.encode()
    for i, count in enumerate(_record_counts(table)):
        buf += struct.pack("<Q", count)
        buf += table.encode(i, count)
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


def load_cache(path, spec: RecurrenceSpec) -> SequenceTable:
    """Restore a table for ``spec`` from a cache file written by save_cache.

    Raises MemoryBudgetError if a fresh table could not have reached the
    cached n under foldrate.engine.DEFAULT_MEMORY_LIMIT, and
    CacheCorruptError if a cached recurrence is not admitted or fails the
    rule that accepts it (holonomic docstring, "Run." and "Persist.").
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 2 + 32 + _HEADER.size + 4:
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
    if reader.take(32) != spec.digest():
        raise CacheMismatchError("cache file was written for a different recurrence")
    tag, n, count, path_kind = _HEADER.unpack(reader.take(_HEADER.size))
    if tag >= len(_DOMAINS):
        raise CacheCorruptError(f"unknown domain tag {tag}")
    domain = _DOMAINS[tag]
    table = SequenceTable(spec, domain=domain)
    if count != table.table_count:
        raise CacheCorruptError("fold table layout does not match the recurrence")
    if path_kind > (domain == "exact"):
        raise CacheCorruptError(f"unknown table path {path_kind}")
    if path_kind:
        from . import holonomic  # only exact tables past their window load it

        table.recurrence = holonomic.decode(reader.take, spec, n)
        if table.recurrence is None:
            raise CacheCorruptError("recurrence record is out of range")
    # log mirrors are rebuilt from the loaded ln values on the first new cell
    table.n = n
    table.decode(reader, _record_counts(table))
    if reader.pos != len(body):
        raise CacheCorruptError("trailing bytes after the last record")
    if table.recurrence and not table.recurrence.holds(table.cols[0], spec):
        raise CacheCorruptError("the cached recurrence does not hold for this spec")
    return table
