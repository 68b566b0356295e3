"""Sequence tables: values, fold cells, budgets and cache round trips."""

import math
import struct
import zlib
from fractions import Fraction

import numpy as np
import pytest

from foldrate import (
    CacheCorruptError,
    CacheMismatchError,
    MemoryBudgetError,
    SequenceTable,
    compute_sequence,
    load_cache,
    parse_spec,
    refine,
    save_cache,
)
from foldrate.engine import _FloatVec, _LogDomain, _Mirror
from foldrate.scalars import log_sum_vec
from helpers import MIXED_EXAMPLE

CATALAN = parse_spec("sum 2 1")
SCHROEDER = parse_spec("sum 1 1\nsum 2 1")
MAX22 = parse_spec("max 2 2")
MIX = parse_spec(MIXED_EXAMPLE)


def catalan_closed(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def test_catalan_matches_closed_form():
    table = compute_sequence(CATALAN, 64, domain="exact")
    for n in range(65):
        assert table.value(n).value == catalan_closed(n)


def test_schroeder_matches_direct_recurrence():
    # independent evaluation without fold tables
    s = [Fraction(1)]
    for n in range(1, 25):
        s.append(s[n - 1] + sum(s[x] * s[n - 1 - x] for x in range(n)))
    table = compute_sequence(SCHROEDER, 24, domain="exact")
    assert [table.value(n).value for n in range(25)] == s
    assert s[:7] == [1, 2, 6, 22, 90, 394, 1806]


def test_arity_one_term_contributes_directly():
    # s_n = 2*s_{n-1} + 3*(sum conv); hand values 1, 5, 40, 395
    table = compute_sequence(parse_spec("sum 1 2\nsum 2 3"), 3, domain="exact")
    assert [table.value(n).value for n in range(4)] == [1, 5, 40, 395]


def test_mixed_example_hand_values():
    spec = parse_spec("sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6")
    table = compute_sequence(spec, 2, domain="exact")
    assert table.value(1).value == 20
    # 2*(2*20) + 3*(3*20) + 4*(4*20) + 5*20 + 6*20
    assert table.value(2).value == 800


def test_pure_max_doubles_each_step():
    table = compute_sequence(MAX22, 64, domain="exact")
    for n in range(65):
        assert table.value(n).value == 2**n


def test_max_fold_never_exceeds_sum_fold():
    spec = parse_spec("sum 3 1\nmax 3 1")
    table = compute_sequence(spec, 12, domain="exact")
    for j in (2, 3):
        for m in range(12):
            assert table.max_fold(j, m).value <= table.sum_fold(j, m).value
        # a single split: max and sum coincide
        assert table.max_fold(j, 0) == table.sum_fold(j, 0)


def test_fold_rank_one_is_the_sequence():
    table = compute_sequence(CATALAN, 6, domain="exact")
    assert table.sum_fold(1, 4) == table.value(4)


def test_stepwise_extension_matches_one_shot():
    stepped = SequenceTable(CATALAN, domain="exact")
    for n in (3, 7, 20, 33):
        stepped.extend(n)
    fresh = compute_sequence(CATALAN, 33, domain="exact")
    assert [stepped.value(i).value for i in range(34)] == [
        fresh.value(i).value for i in range(34)
    ]

    stepped = SequenceTable(CATALAN, domain="log")
    for n in (3, 7, 20, 33):
        stepped.extend(n)
    fresh = compute_sequence(CATALAN, 33, domain="log")
    assert np.array_equal(stepped.ln_values(), fresh.ln_values())


def test_extend_is_monotone():
    table = compute_sequence(CATALAN, 5, domain="log")
    with pytest.raises(ValueError):
        table.extend(3)
    assert table.extend(5) is table


def test_access_guards():
    table = compute_sequence(CATALAN, 3, domain="exact")
    with pytest.raises(IndexError):
        table.value(4)
    with pytest.raises(IndexError):
        table.value(-1)
    with pytest.raises(IndexError):
        table.sum_fold(2, 3)  # fold cells stop one short of the sequence
    with pytest.raises(KeyError):
        table.sum_fold(3, 0)  # no rank-3 table for an arity-2 spec
    with pytest.raises(ValueError):
        SequenceTable(CATALAN, domain="decimal")


def test_exact_memory_budget_interrupts_and_resumes():
    table = SequenceTable(CATALAN, domain="exact", memory_limit=4096)
    with pytest.raises(MemoryBudgetError):
        table.extend(100_000)
    reached = table.n
    assert reached >= 2
    assert table.value(reached).value == catalan_closed(reached)
    table.memory_limit = 1 << 30
    table.extend(reached + 5)
    assert table.value(reached + 5).value == catalan_closed(reached + 5)


def test_log_memory_budget_rejects_upfront():
    table = SequenceTable(CATALAN, domain="log", memory_limit=1024)
    with pytest.raises(MemoryBudgetError):
        table.extend(4096)
    assert table.n == 0  # rejected before doing any work


def test_log_memory_budget_counts_the_sum_mirrors():
    # Catalan keeps 2 ln columns plus 2 mirror columns (forward and
    # reversed s); a budget that fits only the ln columns must refuse
    n = 1000
    with pytest.raises(MemoryBudgetError):
        SequenceTable(CATALAN, domain="log", memory_limit=3 * (n + 1) * 8).extend(n)
    table = SequenceTable(CATALAN, domain="log", memory_limit=4 * (n + 1) * 8).extend(n)
    assert table.n == n


def test_refine_reports_memory_budget():
    report = refine(MIX, memory_limit=20000, max_n=4096)
    assert not report.converged
    assert report.reason == "memory budget exhausted"
    assert report.entries and report.max_n == report.entries[-1].n


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 6 1"])
def test_log_sum_kernel_matches_exact(text):
    spec = parse_spec(text)
    exact = compute_sequence(spec, 300, domain="exact").ln_values()
    logt = compute_sequence(spec, 300, domain="log").ln_values()
    err = np.abs(exact - logt) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= 1e-12


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 6 1"])
def test_log_resume_mid_chunk_is_bit_identical(tmp_path, text):
    spec = parse_spec(text)
    fresh = compute_sequence(spec, 300, domain="log")
    path = str(tmp_path / "mid.seq")
    save_cache(compute_sequence(spec, 100, domain="log"), path)  # inside chunk [64, 128)
    resumed = load_cache(path, spec).extend(300)
    stepped = SequenceTable(spec, domain="log")
    for n in (3, 50, 129, 300):
        stepped.extend(n)
    for table in (resumed, stepped):
        assert np.array_equal(table.ln_values(), fresh.ln_values())
        # the fold tables too: the serialised state is byte-identical
        a, b = str(tmp_path / "a.seq"), str(tmp_path / "b.seq")
        save_cache(table, a)
        save_cache(fresh, b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def test_mix_needs_no_fallback_cells():
    assert compute_sequence(MIX, 2048, domain="log").fallback_cells == 0
    assert compute_sequence(MIX, 8, domain="exact").fallback_cells == 0


def _column(ln_values, forward):
    col = _FloatVec()
    col.mirror = _Mirror(forward=forward)
    col.reserve(len(ln_values))
    for v in ln_values:
        col.append(float(v))
    return col


def test_out_of_window_cells_use_the_ln_kernel():
    rng = np.random.default_rng(7)
    ln_s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.5, 40))])
    ln_c = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.5, 40))])

    def cells(ln_c):
        dom = _LogDomain()
        s, c = _column(ln_s, True), _column(ln_c, False)
        got = [dom.conv_sum(s, c, m) for m in range(41)]
        want = [log_sum_vec(ln_s[: m + 1] + ln_c[m::-1]) for m in range(41)]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        return dom.fallback_cells

    assert cells(ln_c) == 0
    # one entry 1000 above its neighbours leaves the +-340 window: every
    # cell from m = 5 on has it as an input
    spiked = ln_c.copy()
    spiked[5] += 1000.0
    assert cells(spiked) == 41 - 5


def test_duplicate_terms_merge_additively():
    a = compute_sequence(parse_spec("sum 2 1\nsum 2 1"), 16, domain="exact")
    b = compute_sequence(parse_spec("sum 2 2"), 16, domain="exact")
    assert [a.value(n).value for n in range(17)] == [b.value(n).value for n in range(17)]
    # equal-arity max terms share one fold table, so they merge the same way
    c = compute_sequence(parse_spec("max 2 2\nmax 2 3"), 16, domain="exact")
    d = compute_sequence(parse_spec("max 2 5"), 16, domain="exact")
    assert [c.value(n).value for n in range(17)] == [d.value(n).value for n in range(17)]


@pytest.mark.parametrize("domain", ["exact", "log"])
def test_cache_round_trip(tmp_path, domain):
    path = str(tmp_path / f"schroeder.{domain}.seq")
    table = compute_sequence(SCHROEDER, 40, domain=domain)
    save_cache(table, path)
    back = load_cache(path, SCHROEDER)
    assert back.n == 40
    assert back.domain_name == domain
    if domain == "exact":
        assert [back.value(n).value for n in range(41)] == [
            table.value(n).value for n in range(41)
        ]
    else:
        assert np.array_equal(back.ln_values(), table.ln_values())

    # restored tables keep extending exactly like an uninterrupted run
    back.extend(80)
    fresh = compute_sequence(SCHROEDER, 80, domain=domain)
    if domain == "exact":
        assert back.value(80).value == fresh.value(80).value
        assert back.sum_fold(2, 79).value == fresh.sum_fold(2, 79).value
    else:
        assert np.array_equal(back.ln_values(), fresh.ln_values())


def test_cache_rejects_other_spec(tmp_path):
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, 10, domain="exact"), path)
    with pytest.raises(CacheMismatchError):
        load_cache(path, SCHROEDER)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.seq"
    path.write_bytes(b"hello, definitely not a cache")
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_flipped_byte(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_unknown_version(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, 999)  # version lives after the 4-byte magic
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_overwrite_takes_latest(tmp_path):
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, 5, domain="exact"), path)
    save_cache(compute_sequence(CATALAN, 9, domain="exact"), path)
    assert load_cache(path, CATALAN).n == 9


def test_zero_length_table():
    table = compute_sequence(CATALAN, 0, domain="exact")
    assert table.n == 0
    assert table.value(0).value == 1
