"""Sequence cache files: the file frame, save_cache and load_cache.

Layout of version 7, little-endian:

    magic "FRSQ" | u16 version | 32 bytes spec digest | u8 domain tag
    | u64 n | u8 path | path 1: the recurrence record | the values
    | u32 crc32 of everything above

Path 0 is a table on the engine, path 1 an exact table on a proved
recurrence, which holds no fold columns.  The values are s_0..s_n, then,
on path 0, the cells 0..n-1 of each sum rank 2.., as the table encodes:
the little-endian float64 ln value (log), or t_m (exact) in the codec of
every exact int in the file, a u64 byte length and little-endian two's
complement bytes (foldrate.scalars).  The spec digest fixes the ranks,
and n and the path byte how many values each holds, so the file stores
no count.  The recurrence record is holonomic's to write, admit and
accept (holonomic docstring, "Persist."); this module only places its
bytes.  Versions 1 to 6 are refused: 6 held per-record counts and a
table count, 5 also a start in the recurrence record, 4 the max sum rank
in a u16, which overflowed past 65,535 ranks, 3 had no path byte, 1 held
max ranks, and 1 and 2 stored Fractions.
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
_VERSION = 7
_HEADER = struct.Struct("<4sH32sBQB")  # magic, version, digest, domain tag, n, path
_DOMAINS = ("exact", "log")  # by domain tag


class CacheError(RuntimeError):
    """Problem with a sequence cache file."""


class CacheMismatchError(CacheError):
    """Cache file belongs to a different recurrence than the one given."""


class CacheCorruptError(CacheError):
    """Cache file is truncated, checksum-broken, or not a cache at all."""


def save_cache(table: SequenceTable, path) -> None:
    """Write a table (sequence and fold columns, or its recurrence) to a cache file."""
    rec = table.recurrence
    buf = bytearray(_HEADER.pack(_MAGIC, _VERSION, table.spec.digest(),
                                 _DOMAINS.index(table.domain_name), table.n, rec is not None))
    if rec:
        buf += rec.encode()
    buf += table.encode()
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
    if len(data) < _HEADER.size + 4:
        raise CacheCorruptError("cache file is too short")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise CacheCorruptError("cache checksum mismatch")
    magic, version, digest, tag, n, path_kind = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise CacheCorruptError("not a sequence cache file")
    if version != _VERSION:
        raise CacheCorruptError(f"unsupported cache version {version}")
    if digest != spec.digest():
        raise CacheMismatchError("cache file was written for a different recurrence")
    if tag >= len(_DOMAINS):
        raise CacheCorruptError(f"unknown domain tag {tag}")
    domain = _DOMAINS[tag]
    table = SequenceTable(spec, domain=domain)
    if path_kind > (domain == "exact"):
        raise CacheCorruptError(f"unknown table path {path_kind}")
    pos = _HEADER.size

    def take(k: int) -> bytes:
        nonlocal pos
        if pos + k > len(body):
            raise CacheCorruptError("cache file is truncated")
        pos += k
        return body[pos - k : pos]

    if path_kind:
        from . import holonomic  # only exact tables past their window load it

        table.recurrence = holonomic.decode(take, spec, n)
        if table.recurrence is None:
            raise CacheCorruptError("recurrence record is out of range")
    # log mirrors are rebuilt from the loaded ln values on the first new cell
    table.n = n
    table.decode(take)
    if pos != len(body):
        raise CacheCorruptError("trailing bytes after the last record")
    if table.recurrence and not table.recurrence.holds(table.cols[0], spec):
        raise CacheCorruptError("the cached recurrence does not hold for this spec")
    return table
